package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
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
// edge list, the CSR's four arrays and one cursor array, with no
// allocation per neighbour list.
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
