package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

func diamond(t *testing.T) *CSR {
	t.Helper()
	// 0->1, 0->2, 1->3, 2->3, 3->0
	g, err := Build(4, []Edge32{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildDegreesAndNeighbors(t *testing.T) {
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 1 {
		t.Errorf("out degrees: %d, %d", g.OutDegree(0), g.OutDegree(3))
	}
	if g.InDegree(3) != 2 || g.InDegree(0) != 1 {
		t.Errorf("in degrees: %d, %d", g.InDegree(3), g.InDegree(0))
	}
	if ns := g.OutNeighbors(0); len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Errorf("OutNeighbors(0) = %v", ns)
	}
	if ns := g.InNeighbors(3); len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Errorf("InNeighbors(3) = %v", ns)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(0, nil); err == nil {
		t.Error("empty vertex set should fail")
	}
	if _, err := Build(2, []Edge32{{0, 5}}); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
}

func TestBuildSortsNeighborLists(t *testing.T) {
	g, err := Build(3, []Edge32{{0, 2}, {0, 1}, {2, 0}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if ns := g.OutNeighbors(0); ns[0] != 1 || ns[1] != 2 {
		t.Errorf("unsorted neighbours: %v", ns)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGenerateUniform(t *testing.T) {
	g, err := GenerateUniform(100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges != 300 {
		t.Errorf("edges = %d, want 300", g.NumEdges)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	for v := uint32(0); v < 100; v++ {
		if g.OutDegree(v) != 3 {
			t.Fatalf("vertex %d out-degree = %d, want 3", v, g.OutDegree(v))
		}
	}
	// Determinism.
	g2, _ := GenerateUniform(100, 3, 1)
	if g2.Edge[0] != g.Edge[0] || g2.Edge[100] != g.Edge[100] {
		t.Error("same seed must generate the same graph")
	}
}

func TestGeneratePowerLawSkew(t *testing.T) {
	g, err := GeneratePowerLaw(2000, 8, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-degrees must be heavily skewed: the max should dwarf the average.
	var max uint64
	for v := uint32(0); v < 2000; v++ {
		if d := g.InDegree(v); d > max {
			max = d
		}
	}
	if max < 8*10 {
		t.Errorf("max in-degree = %d, want heavy skew (>= 10x average)", max)
	}
}

func TestGenerateParamValidation(t *testing.T) {
	if _, err := GenerateUniform(0, 3, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := GeneratePowerLaw(10, 2, 1.0, 1); err == nil {
		t.Error("alpha<=1 should fail")
	}
	if _, err := GenerateRing(1); err == nil {
		t.Error("1-ring should fail")
	}
	if _, err := GenerateGrid(0, 3); err == nil {
		t.Error("empty grid should fail")
	}
}

func TestGenerateRing(t *testing.T) {
	g, err := GenerateRing(5)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 5; v++ {
		if g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
			t.Fatalf("ring degrees wrong at %d", v)
		}
		if g.OutNeighbors(v)[0] != (v+1)%5 {
			t.Fatalf("ring edge wrong at %d", v)
		}
	}
}

func TestGenerateGrid(t *testing.T) {
	g, err := GenerateGrid(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 3x2 grid: right edges 2 per row x2 rows = 4, down edges 3.
	if g.NumEdges != 7 {
		t.Errorf("edges = %d, want 7", g.NumEdges)
	}
	if g.OutDegree(0) != 2 { // right + down
		t.Errorf("corner out-degree = %d, want 2", g.OutDegree(0))
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices != g.NumVertices || g2.NumEdges != g.NumEdges {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", g2.NumVertices, g2.NumEdges, g.NumVertices, g.NumEdges)
	}
	for v := uint64(0); v <= g.NumVertices; v++ {
		if g.Begin[v] != g2.Begin[v] {
			t.Fatalf("begin[%d] mismatch", v)
		}
	}
	for i := range g.Edge {
		if g.Edge[i] != g2.Edge[i] {
			t.Fatalf("edge[%d] mismatch", i)
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n\n# a comment\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || g.NumEdges != 3 {
		t.Errorf("shape = %d/%d, want 3/3", g.NumVertices, g.NumEdges)
	}
}

func TestReadEdgeListBadLine(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0 1\nnot an edge\n")); err == nil {
		t.Error("malformed line should fail")
	}
	if _, err := ReadEdgeList(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestSmartCSRMatchesPlainCSR(t *testing.T) {
	mem := memsim.New(machine.X52Small())
	g, err := GenerateUniform(500, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []Layout{
		{},                    // "U"
		{CompressBegin: true}, // "V"
		{CompressBegin: true, CompressEdge: true},          // "V+E"
		{Placement: memsim.Replicated, CompressEdge: true}, // replicated
		{Placement: memsim.SingleSocket, Socket: 1, CompressBegin: true},
	}
	for li, layout := range layouts {
		s, err := NewSmartCSR(mem, g, layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, socket := range []int{0, 1} {
			beginRep := s.Begin.GetReplica(socket)
			edgeRep := s.Edge.GetReplica(socket)
			rbeginRep := s.RBegin.GetReplica(socket)
			redgeRep := s.REdge.GetReplica(socket)
			for v := uint64(0); v <= g.NumVertices; v++ {
				if got := s.Begin.Get(beginRep, v); got != g.Begin[v] {
					t.Fatalf("layout %d: begin[%d] = %d, want %d", li, v, got, g.Begin[v])
				}
				if got := s.RBegin.Get(rbeginRep, v); got != g.RBegin[v] {
					t.Fatalf("layout %d: rbegin[%d] mismatch", li, v)
				}
			}
			for i := uint64(0); i < g.NumEdges; i++ {
				if got := s.Edge.Get(edgeRep, i); got != uint64(g.Edge[i]) {
					t.Fatalf("layout %d: edge[%d] = %d, want %d", li, i, got, g.Edge[i])
				}
				if got := s.REdge.Get(redgeRep, i); got != uint64(g.REdge[i]) {
					t.Fatalf("layout %d: redge[%d] mismatch", li, i)
				}
			}
		}
		if s.OutDegree(0, 7) != g.OutDegree(7) {
			t.Errorf("layout %d: OutDegree mismatch", li)
		}
		s.Free()
	}
	if mem.TotalUsedBytes() != 0 {
		t.Errorf("leaked %d simulated bytes", mem.TotalUsedBytes())
	}
}

func TestSmartCSRCompressionShrinksPayload(t *testing.T) {
	mem := memsim.New(machine.X52Small())
	g, err := GenerateUniform(2000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewSmartCSR(mem, g, Layout{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Free()
	ve, err := NewSmartCSR(mem, g, Layout{CompressBegin: true, CompressEdge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ve.Free()
	if ve.PayloadBytes() >= u.PayloadBytes() {
		t.Errorf("V+E payload %d should be < U payload %d", ve.PayloadBytes(), u.PayloadBytes())
	}
	if u.Edge.Bits() != 32 || u.Begin.Bits() != 64 {
		t.Errorf("U layout widths wrong: edge=%d begin=%d", u.Edge.Bits(), u.Begin.Bits())
	}
	// 8000 edges -> begin needs 13 bits; 2000 vertices -> edges need 11.
	if ve.Begin.Bits() != 13 {
		t.Errorf("V begin bits = %d, want 13", ve.Begin.Bits())
	}
	if ve.Edge.Bits() != 11 {
		t.Errorf("V+E edge bits = %d, want 11", ve.Edge.Bits())
	}
}

// Property: Build is order-insensitive — any permutation of the edge list
// produces an identical CSR (lists are sorted).
func TestQuickBuildOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		g1, err := GenerateUniform(60, 3, seed)
		if err != nil {
			return false
		}
		// Rebuild from a reversed edge list.
		var edges []Edge32
		for v := uint64(0); v < g1.NumVertices; v++ {
			for _, d := range g1.OutNeighbors(uint32(v)) {
				edges = append(edges, Edge32{Src: uint32(v), Dst: d})
			}
		}
		for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
			edges[i], edges[j] = edges[j], edges[i]
		}
		g2, err := Build(g1.NumVertices, edges)
		if err != nil {
			return false
		}
		for v := uint64(0); v <= g1.NumVertices; v++ {
			if g1.Begin[v] != g2.Begin[v] || g1.RBegin[v] != g2.RBegin[v] {
				return false
			}
		}
		for i := range g1.Edge {
			if g1.Edge[i] != g2.Edge[i] || g1.REdge[i] != g2.REdge[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReadEdgeListVertexCap(t *testing.T) {
	// A tiny input must not be able to demand a gigabyte-scale graph.
	if _, err := ReadEdgeList(strings.NewReader("0 99999999\n")); err == nil {
		t.Error("absurd vertex ID should hit the parser cap")
	}
	// The explicit-limit variant can accept it.
	g, err := ReadEdgeListLimit(strings.NewReader("0 5\n"), 10)
	if err != nil || g.NumVertices != 6 {
		t.Errorf("limited read = %v, %v", g, err)
	}
	if _, err := ReadEdgeListLimit(strings.NewReader("0 11\n"), 10); err == nil {
		t.Error("explicit limit should be enforced")
	}
	// Headers are checked against the cap too.
	if _, err := ReadEdgeList(strings.NewReader("# vertices 99999999999 edges 0\n")); err == nil {
		t.Error("absurd header should hit the parser cap")
	}
}
