package graph

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// csrHash is FNV-64a over Begin, Edge, RBegin and REdge, each element
// little-endian at its own width.
func csrHash(g *CSR) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, begin := range [][]uint64{g.Begin, g.RBegin} {
		for _, v := range begin {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	for _, edge := range [][]uint32{g.Edge, g.REdge} {
		for _, v := range edge {
			binary.LittleEndian.PutUint32(buf[:4], v)
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}

// TestBuildGoldenCSR pins Build's output on power-law graphs to hashes
// recorded from the sort-every-list implementation it replaced: filling
// the in-lists from the sorted out-lists must leave every array as it was.
func TestBuildGoldenCSR(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want uint64
	}{
		{2, 0xe84af735221894d3},
		{1000, 0xe26d5872fa0c00f1},
		{100000, 0x71bbfbe740bbea3f},
	} {
		g, err := GeneratePowerLaw(c.n, 8, 2.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := csrHash(g); got != c.want {
			t.Errorf("n=%d: CSR hash %#x, want %#x", c.n, got, c.want)
		}
	}
}

// TestBuildAllocations ratchets the power-law build: the generator's
// edge list, the CSR's four arrays, the counting sort's slab window and
// its per-slab cursors, with no allocation per neighbour list or per slab.
func TestBuildAllocations(t *testing.T) {
	const ceiling = 16
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := GeneratePowerLaw(100000, 8, 2.1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("GeneratePowerLaw(100000, 8) made %v allocations, ceiling %d", allocs, ceiling)
	}
}

// TestBuildSmartMatchesNewSmartCSR: building an edge list straight into
// smart arrays leaves every replica word for word as copying Build's CSR
// does, at every layout, on graphs that exercise an edgeless vertex set,
// a hub whose out-list holds half the edges, more edges per vertex than
// a slab holds, and several slabs.
func TestBuildSmartMatchesNewSmartCSR(t *testing.T) {
	mem := memsim.New(machine.X52Small())
	star := func(n uint64) []Edge32 {
		var edges []Edge32
		for v := uint32(1); uint64(v) < n; v++ {
			edges = append(edges, Edge32{Src: 0, Dst: v}, Edge32{Src: v, Dst: v / 2})
		}
		return edges
	}
	dense := make([]Edge32, 3*slabEdges+5)
	for i := range dense {
		dense[i] = Edge32{Src: uint32(i*7) % 3, Dst: uint32(i*5) % 3}
	}
	powerLaw, err := PowerLawEdges(30000, 8, 2.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name  string
		n     uint64
		edges []Edge32
	}{
		{"edgeless", 3, nil},
		{"one-edge", 1, []Edge32{{0, 0}}},
		{"star", 5000, star(5000)},
		{"dense", 3, dense},
		{"power-law", 30000, powerLaw},
	}
	layouts := []Layout{
		{},                    // "U"
		{CompressBegin: true}, // "V"
		{CompressBegin: true, CompressEdge: true, Placement: memsim.Interleaved},
		{Placement: memsim.Replicated, CompressEdge: true},
		{Placement: memsim.SingleSocket, Socket: 1, CompressBegin: true},
	}
	for _, c := range graphs {
		g, err := Build(c.n, slices.Clone(c.edges))
		if err != nil {
			t.Fatal(err)
		}
		for li, layout := range layouts {
			want, err := NewSmartCSR(mem, g, layout)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildSmart(mem, c.n, slices.Clone(c.edges), layout)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumVertices != want.NumVertices || got.NumEdges != want.NumEdges {
				t.Fatalf("%s, layout %d: %d vertices, %d edges; want %d, %d", c.name, li,
					got.NumVertices, got.NumEdges, want.NumVertices, want.NumEdges)
			}
			for i, pair := range [][2]*core.SmartArray{
				{got.Begin, want.Begin}, {got.RBegin, want.RBegin},
				{got.Edge, want.Edge}, {got.REdge, want.REdge},
			} {
				if pair[0].Bits() != pair[1].Bits() || pair[0].Length() != pair[1].Length() {
					t.Fatalf("%s, layout %d, array %d: %d elements at %d bits, want %d at %d", c.name, li, i,
						pair[0].Length(), pair[0].Bits(), pair[1].Length(), pair[1].Bits())
				}
				for socket := range 2 {
					if !slices.Equal(pair[0].GetReplica(socket), pair[1].GetReplica(socket)) {
						t.Fatalf("%s, layout %d, array %d: socket %d's words differ", c.name, li, i, socket)
					}
				}
			}
			got.Free()
			want.Free()
		}
	}
	if used := mem.TotalUsedBytes(); used != 0 {
		t.Errorf("leaked %d simulated bytes", used)
	}
}

// TestBuildSmartRejectsBadInput: the packed build refuses what Build
// refuses, and frees what it had allocated.
func TestBuildSmartRejectsBadInput(t *testing.T) {
	mem := memsim.New(machine.X52Small())
	if _, err := BuildSmart(mem, 0, nil, Layout{}); err == nil {
		t.Error("empty vertex set accepted")
	}
	if _, err := BuildSmart(mem, 1<<32+1, nil, Layout{}); err == nil {
		t.Error("2^32+1 vertices accepted")
	}
	if _, err := BuildSmart(mem, 4, []Edge32{{0, 1}, {2, 9}}, Layout{CompressEdge: true}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if used := mem.TotalUsedBytes(); used != 0 {
		t.Errorf("a refused build left %d simulated bytes allocated", used)
	}
}
