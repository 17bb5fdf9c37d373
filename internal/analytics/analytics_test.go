package analytics

import (
	"math"
	"testing"

	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

func newRT() *rts.Runtime { return rts.New(machine.X52Small()) }

func smartGraph(t *testing.T, rt *rts.Runtime, g *graph.CSR, layout graph.Layout) *graph.SmartCSR {
	t.Helper()
	s, err := graph.NewSmartCSR(rt.Memory(), g, layout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Free)
	return s
}

func TestDegreeCentralityMatchesReference(t *testing.T) {
	rt := newRT()
	g, err := graph.GenerateUniform(3000, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []graph.Layout{
		{},
		{CompressBegin: true, Placement: memsim.Replicated},
		{CompressBegin: true, CompressEdge: true, Placement: memsim.Interleaved},
	}
	for li, layout := range layouts {
		s := smartGraph(t, rt, g, layout)
		out, work, err := DegreeCentrality(rt, s)
		if err != nil {
			t.Fatal(err)
		}
		rep := out.GetReplica(0)
		for v := uint64(0); v < g.NumVertices; v++ {
			want := g.OutDegree(uint32(v)) + g.InDegree(uint32(v))
			if got := out.Get(rep, v); got != want {
				t.Fatalf("layout %d: degree(%d) = %d, want %d", li, v, got, want)
			}
		}
		out.Free()
		if work.Instructions <= 0 || len(work.Streams) != 3 {
			t.Errorf("layout %d: workload malformed: %+v", li, work)
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	rt := newRT()
	g, err := graph.GeneratePowerLaw(800, 5, 1.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPageRankConfig()
	wantRanks, wantIters := PageRankRef(g, cfg)

	for _, layout := range []graph.Layout{
		{},
		{Placement: memsim.Replicated, CompressBegin: true},
		{Placement: memsim.SingleSocket, Socket: 1, CompressBegin: true, CompressEdge: true},
	} {
		s := smartGraph(t, rt, g, layout)
		prCfg := cfg
		if layout.CompressBegin {
			prCfg.DegreeBits = 22
		}
		got, iters, work, err := PageRank(rt, s, prCfg)
		if err != nil {
			t.Fatal(err)
		}
		if iters != wantIters {
			t.Errorf("layout %+v: iterations = %d, want %d", layout, iters, wantIters)
		}
		for v := range got {
			if math.Abs(got[v]-wantRanks[v]) > 1e-9 {
				t.Fatalf("layout %+v: rank[%d] = %g, want %g", layout, v, got[v], wantRanks[v])
			}
		}
		if work.Instructions <= 0 || len(work.Streams) != 5 {
			t.Errorf("workload malformed: %d streams", len(work.Streams))
		}
	}
}

func TestPageRankRanksSumToOne(t *testing.T) {
	rt := newRT()
	g, err := graph.GenerateRing(64)
	if err != nil {
		t.Fatal(err)
	}
	s := smartGraph(t, rt, g, graph.Layout{})
	ranks, _, _, err := PageRank(rt, s, DefaultPageRankConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	// On a ring every vertex has in=out=1: ranks are uniform and sum to 1.
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("rank sum = %g, want 1", sum)
	}
	for v := 1; v < len(ranks); v++ {
		if math.Abs(ranks[v]-ranks[0]) > 1e-12 {
			t.Errorf("ring ranks not uniform: %g vs %g", ranks[v], ranks[0])
		}
	}
}

func TestPageRankConfigValidation(t *testing.T) {
	rt := newRT()
	g, _ := graph.GenerateRing(8)
	s := smartGraph(t, rt, g, graph.Layout{})
	bad := []PageRankConfig{
		{Damping: 0, Tol: 1e-3, MaxIters: 10},
		{Damping: 1.5, Tol: 1e-3, MaxIters: 10},
		{Damping: 0.85, Tol: 0, MaxIters: 10},
		{Damping: 0.85, Tol: 1e-3, MaxIters: 0},
	}
	for i, cfg := range bad {
		if _, _, _, err := PageRank(rt, s, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestPageRankDanglingVertices(t *testing.T) {
	// Vertex 2 has no out-edges: it must not contribute rank, and the run
	// must still converge (matching the reference).
	rt := newRT()
	g, err := graph.Build(3, []graph.Edge32{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := smartGraph(t, rt, g, graph.Layout{})
	cfg := DefaultPageRankConfig()
	got, _, _, err := PageRank(rt, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := PageRankRef(g, cfg)
	for v := range got {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Errorf("rank[%d] = %g, want %g", v, got[v], want[v])
		}
	}
}

func TestBFSLevelsOnGrid(t *testing.T) {
	rt := newRT()
	g, err := graph.GenerateGrid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := smartGraph(t, rt, g, graph.Layout{CompressBegin: true, CompressEdge: true})
	levels, numLevels, work, err := BFS(rt, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Manhattan distance from (0,0) in a right/down grid.
	for y := uint64(0); y < 3; y++ {
		for x := uint64(0); x < 4; x++ {
			want := int64(x + y)
			if got := levels[y*4+x]; got != want {
				t.Errorf("level(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
	if numLevels != 6 { // levels 0..5
		t.Errorf("numLevels = %d, want 6", numLevels)
	}
	if work.Instructions <= 0 {
		t.Error("BFS workload empty")
	}
}

func TestBFSUnreachable(t *testing.T) {
	rt := newRT()
	// Two disconnected edges: 0->1, 2->3.
	g, err := graph.Build(4, []graph.Edge32{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	s := smartGraph(t, rt, g, graph.Layout{})
	levels, _, _, err := BFS(rt, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if levels[2] != -1 || levels[3] != -1 {
		t.Errorf("unreachable vertices have levels %d, %d; want -1", levels[2], levels[3])
	}
	if _, _, _, err := BFS(rt, s, 99); err == nil {
		t.Error("out-of-range source should fail")
	}
}

func TestWorkloadStreamsCarryPlacement(t *testing.T) {
	rt := newRT()
	g, _ := graph.GenerateUniform(500, 3, 2)
	s := smartGraph(t, rt, g, graph.Layout{Placement: memsim.Replicated})
	_, work, err := DegreeCentrality(rt, s)
	if err != nil {
		t.Fatal(err)
	}
	if work.Streams[0].Placement != memsim.Replicated {
		t.Errorf("begin stream placement = %v, want replicated", work.Streams[0].Placement)
	}
	if work.Streams[2].Kind != perfmodel.Write || work.Streams[2].Placement != memsim.Interleaved {
		t.Errorf("output stream must be an interleaved write: %+v", work.Streams[2])
	}
}
