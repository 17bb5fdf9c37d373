package analytics

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/memsim"
	"smartarrays/internal/rts"
)

// TestPageRankStealingPowerLawAgreement is the acceptance check of the
// graph fast path: on power-law graphs with cross-socket stealing enabled
// and degree-weighted batch bounds, the streamed/gathered PageRank must
// match the sequential reference within 1e-9 per vertex at every degree
// width the Figure 12 variants use (64 = "U"/"32", 22 = "V"/"V+E", 16 as
// an extra compressed width), across layouts.
func TestPageRankStealingPowerLawAgreement(t *testing.T) {
	rt := newRT()
	rt.SetStealing(true)
	g, err := graph.GeneratePowerLaw(4096, 8, 1.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPageRankConfig()
	wantRanks, wantIters := PageRankRef(g, cfg)

	layouts := []graph.Layout{
		{},
		{Placement: memsim.Replicated, CompressBegin: true, CompressEdge: true},
		{Placement: memsim.Interleaved, CompressBegin: true},
	}
	for _, degBits := range []uint{16, 22, 64} {
		for _, layout := range layouts {
			s := smartGraph(t, rt, g, layout)
			prCfg := cfg
			prCfg.DegreeBits = degBits
			got, iters, _, err := PageRank(rt, s, prCfg)
			if err != nil {
				t.Fatal(err)
			}
			if iters != wantIters {
				t.Errorf("degBits=%d layout %+v: iterations = %d, want %d", degBits, layout, iters, wantIters)
			}
			for v := range got {
				if math.Abs(got[v]-wantRanks[v]) > 1e-9 {
					t.Fatalf("degBits=%d layout %+v: rank[%d] = %g, want %g (|diff| %g)",
						degBits, layout, v, got[v], wantRanks[v], math.Abs(got[v]-wantRanks[v]))
				}
			}
		}
	}
}

// TestPageRankFastMatchesScalar pins the fast path against the preserved
// edge-at-a-time implementation — two independent smart-array codepaths
// over identical arrays.
func TestPageRankFastMatchesScalar(t *testing.T) {
	rt := newRT()
	g, err := graph.GeneratePowerLaw(2000, 6, 1.7, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := smartGraph(t, rt, g, graph.Layout{CompressBegin: true, CompressEdge: true})
	cfg := DefaultPageRankConfig()
	cfg.DegreeBits = 22
	fast, fastIters, _, err := PageRank(rt, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalar, scalarIters, err := pageRankScalar(rt, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fastIters != scalarIters {
		t.Errorf("iterations: fast %d, scalar %d", fastIters, scalarIters)
	}
	for v := range fast {
		if math.Abs(fast[v]-scalar[v]) > 1e-9 {
			t.Fatalf("rank[%d]: fast %g, scalar %g", v, fast[v], scalar[v])
		}
	}
}

// TestPageRankSegmentsCrossEmitBoundaries is the shape the segmented
// accumulate has to get right: hubs whose in-edge segments are longer than
// one decoded run (prEdgeBufLen), so a vertex's sum is carried across emit
// calls and a run ends mid-vertex, between long stretches of in-degree-0
// vertices the segment walk must skip. Every rank is held bit-for-bit to
// PageRankRef and to the per-edge oracle, under stealing.
func TestPageRankSegmentsCrossEmitBoundaries(t *testing.T) {
	const n = 9000
	const hubA, hubB, hubC = 3000, 6500, n - 1
	var edges []graph.Edge32
	// [0, 3000) and the stretches between the hubs have no in-edges at all.
	for src := uint32(0); src < hubA; src++ {
		edges = append(edges, graph.Edge32{Src: src, Dst: hubA}) // 3000 in-edges: three runs
		if src%2 == 0 {
			edges = append(edges, graph.Edge32{Src: src, Dst: hubB}) // 1500, starting mid-run
		}
		if src < prEdgeBufLen+1 {
			edges = append(edges, graph.Edge32{Src: src, Dst: hubC}) // one edge over a run, last vertex
		}
	}
	// The hubs feed a few low-degree vertices so ranks differ across iterations.
	for i := uint32(0); i < 40; i++ {
		edges = append(edges,
			graph.Edge32{Src: hubA, Dst: 8000 + i},
			graph.Edge32{Src: hubB, Dst: 8000 + i/2},
			graph.Edge32{Src: 8000 + i, Dst: 8100 + i%7})
	}
	g, err := graph.Build(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if deg := g.InDegree(hubA); deg <= 2*prEdgeBufLen {
		t.Fatalf("hub in-degree %d does not span several %d-edge runs", deg, prEdgeBufLen)
	}
	cfg := DefaultPageRankConfig()
	cfg.Tol = 1e-12 // keep iterating: later iterations gather unequal contributions
	cfg.MaxIters = 8
	want, wantIters := PageRankRef(g, cfg)

	rt := newRT()
	rt.SetStealing(true)
	for _, layout := range []graph.Layout{
		{},
		{Placement: memsim.Replicated, CompressBegin: true, CompressEdge: true},
	} {
		s := smartGraph(t, rt, g, layout)
		got, iters, _, err := PageRank(rt, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalar, _, err := pageRankScalar(rt, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if iters != wantIters {
			t.Errorf("layout %+v: iterations = %d, want %d", layout, iters, wantIters)
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("layout %+v: rank[%d] = %x, PageRankRef gives %x", layout, v, math.Float64bits(got[v]), math.Float64bits(want[v]))
			}
			if math.Abs(got[v]-scalar[v]) > 1e-12 {
				t.Fatalf("layout %+v: rank[%d] = %g, per-edge oracle gives %g", layout, v, got[v], scalar[v])
			}
		}
	}
}

// TestPageRankEdgePastLastVertexPanics corrupts one reverse edge to name
// vertex n: a value the edge width still holds, and — n being no multiple
// of 64 — an index inside the chunk padding of the contribution payload.
// The contribution read fused into the segment sum must still bounds-check
// it against the array's length, so PageRank panics instead of summing a
// padding word.
func TestPageRankEdgePastLastVertexPanics(t *testing.T) {
	const n = 1000
	g, err := graph.GenerateUniform(n, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT()
	for _, layout := range []graph.Layout{{}, {CompressBegin: true, CompressEdge: true}} {
		s := smartGraph(t, rt, g, layout)
		if !bitpack.MustNew(s.REdge.Bits()).Fits(n) {
			t.Fatalf("layout %+v: vertex id %d does not fit the %d-bit edge width", layout, n, s.REdge.Bits())
		}
		s.REdge.Init(0, g.NumEdges/2, n)
		func() {
			defer func() {
				want := fmt.Sprintf("index out of range [%d] with length %d", n, n)
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("layout %+v: PageRank over an edge to vertex %d recovered %v, want a panic naming %q", layout, n, r, want)
				}
			}()
			PageRank(rt, s, DefaultPageRankConfig())
		}()
	}
}

// TestAnalyticsUnderStealing reruns the reference-agreement checks for the
// degree and BFS kernels on a power-law graph with stealing on — the steal
// path must not duplicate or drop batches for either of them.
func TestAnalyticsUnderStealing(t *testing.T) {
	rt := newRT()
	rt.SetStealing(true)
	g, err := graph.GeneratePowerLaw(3000, 5, 1.8, 13)
	if err != nil {
		t.Fatal(err)
	}
	s := smartGraph(t, rt, g, graph.Layout{CompressBegin: true, CompressEdge: true})

	out, _, err := DegreeCentrality(rt, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := out.GetReplica(0)
	for v := uint64(0); v < g.NumVertices; v++ {
		want := g.OutDegree(uint32(v)) + g.InDegree(uint32(v))
		if got := out.Get(rep, v); got != want {
			t.Fatalf("degree(%d) = %d, want %d", v, got, want)
		}
	}
	out.Free()

	// BFS claims each vertex with a CAS from whichever batch reaches it
	// first, so a dropped or duplicated stolen batch shows as a wrong level.
	// Power-law edges point at hubs, so walk the reverse edges from the
	// largest hub: its first frontier holds thousands of vertices. Compare
	// against a sequential queue BFS over the plain CSR.
	var hub uint32
	var rev []graph.Edge32
	for v := uint32(0); uint64(v) < g.NumVertices; v++ {
		if g.InDegree(v) > g.InDegree(hub) {
			hub = v
		}
		for _, d := range g.OutNeighbors(v) {
			rev = append(rev, graph.Edge32{Src: d, Dst: v})
		}
	}
	rg, err := graph.Build(g.NumVertices, rev)
	if err != nil {
		t.Fatal(err)
	}
	levels, _, _, err := BFS(rt, smartGraph(t, rt, rg, graph.Layout{CompressBegin: true, CompressEdge: true}), uint64(hub))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, rg.NumVertices)
	for i := range want {
		want[i] = -1
	}
	want[hub] = 0
	reached := 1
	for queue := []uint32{hub}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, d := range rg.OutNeighbors(u) {
			if want[d] < 0 {
				want[d] = want[u] + 1
				queue = append(queue, d)
				reached++
			}
		}
	}
	if reached < int(rg.NumVertices)/2 {
		t.Fatalf("the hub reaches %d of %d vertices: the frontiers are too narrow to steal", reached, rg.NumVertices)
	}
	for v := range want {
		if levels[v] != want[v] {
			t.Fatalf("BFS level[%d] = %d, want %d", v, levels[v], want[v])
		}
	}
}

// benchGraph builds one EXPERIMENTS.md measurement subject: a 64Ki-vertex
// graph (power-law or uniform) with compressed CSR arrays.
func benchGraph(b *testing.B, rt *rts.Runtime, kind string) *graph.SmartCSR {
	b.Helper()
	var g *graph.CSR
	var err error
	switch kind {
	case "powerlaw":
		g, err = graph.GeneratePowerLaw(64*1024, 8, 1.6, 42)
	case "uniform":
		g, err = graph.GenerateUniform(64*1024, 8, 42)
	default:
		b.Fatalf("unknown graph kind %q", kind)
	}
	if err != nil {
		b.Fatal(err)
	}
	s, err := graph.NewSmartCSR(rt.Memory(), g, graph.Layout{CompressBegin: true, CompressEdge: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Free)
	return s
}

var benchGraphKinds = []string{"powerlaw", "uniform"}
var benchDegreeBits = []uint{16, 22, 64}

// BenchmarkPageRankFast vs BenchmarkPageRankScalar is the before/after
// wall-clock comparison recorded in EXPERIMENTS.md: the streamed/gathered
// fast path (stealing on) against the preserved per-edge Get formulation,
// per graph kind and degree-array width.
func BenchmarkPageRankFast(b *testing.B) {
	for _, kind := range benchGraphKinds {
		for _, bits := range benchDegreeBits {
			b.Run(fmt.Sprintf("%s/deg%d", kind, bits), func(b *testing.B) {
				rt := newRT()
				rt.SetStealing(true)
				s := benchGraph(b, rt, kind)
				cfg := DefaultPageRankConfig()
				cfg.DegreeBits = bits
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := PageRank(rt, s, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPageRankScalar(b *testing.B) {
	for _, kind := range benchGraphKinds {
		for _, bits := range benchDegreeBits {
			b.Run(fmt.Sprintf("%s/deg%d", kind, bits), func(b *testing.B) {
				rt := newRT()
				s := benchGraph(b, rt, kind)
				cfg := DefaultPageRankConfig()
				cfg.DegreeBits = bits
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := pageRankScalar(rt, s, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// degreeCentralityMap reproduces the pre-fast-path degree centrality body
// (per-element closure iteration via core.Map) as the "before" measurement.
func degreeCentralityMap(rt *rts.Runtime, g *graph.SmartCSR) *core.SmartArray {
	out, err := core.Allocate(rt.Memory(), core.Config{
		Length: g.NumVertices, Bits: 64, Placement: memsim.Interleaved,
	})
	if err != nil {
		panic(err)
	}
	rt.ParallelFor(0, g.NumVertices, 0, func(w *rts.Worker, lo, hi uint64) {
		deg := make([]uint64, hi-lo)
		var prev uint64
		core.Map(g.Begin, w.Socket, lo, hi+1, func(i, v uint64) {
			if i > lo {
				deg[i-1-lo] = v - prev
			}
			prev = v
		})
		core.Map(g.RBegin, w.Socket, lo, hi+1, func(i, v uint64) {
			if i > lo {
				deg[i-1-lo] += v - prev
			}
			prev = v
		})
		for i, d := range deg {
			out.Init(w.Socket, lo+uint64(i), d)
		}
	})
	return out
}

func BenchmarkDegreeCentralityFast(b *testing.B) {
	for _, kind := range benchGraphKinds {
		b.Run(kind, func(b *testing.B) {
			rt := newRT()
			s := benchGraph(b, rt, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := DegreeCentrality(rt, s)
				if err != nil {
					b.Fatal(err)
				}
				out.Free()
			}
		})
	}
}

func BenchmarkDegreeCentralityMap(b *testing.B) {
	for _, kind := range benchGraphKinds {
		b.Run(kind, func(b *testing.B) {
			rt := newRT()
			s := benchGraph(b, rt, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				degreeCentralityMap(rt, s).Free()
			}
		})
	}
}
