package queryd

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"testing"

	"smartarrays/internal/analytics"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// topRanks is the served top-K over a whole rank vector: mergeTopRanks
// fed in uneven chunks, so the window carries across chunk boundaries as
// it does between summarizeRanks' reads.
func topRanks(ranks []float64, k int) []VertexRank {
	top := make([]VertexRank, 0, max(0, min(k, len(ranks))))
	for lo, step := 0, 1; lo < len(ranks); lo, step = lo+step, step*2+1 {
		chunk := ranks[lo:min(lo+step, len(ranks))]
		bits := make([]uint64, len(chunk))
		for i, r := range chunk {
			bits[i] = math.Float64bits(r)
		}
		top = mergeTopRanks(top, k, uint64(lo), bits)
	}
	return top
}

// topRanksBySort is the full stable sort mergeTopRanks replaced: rank
// descending, equal ranks in vertex order.
func topRanksBySort(ranks []float64, k int) []VertexRank {
	all := make([]VertexRank, len(ranks))
	for v, r := range ranks {
		all[v] = VertexRank{Vertex: uint64(v), Rank: r}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Rank > all[b].Rank })
	return all[:max(0, min(k, len(all)))]
}

// TestTopRanksMatchesFullSort covers what a power-law PageRank produces —
// in-degree-0 vertices all share the lowest rank, so ties are the common
// case and must come out by vertex id — plus k > n, k = n and n = 0.
func TestTopRanksMatchesFullSort(t *testing.T) {
	x := uint64(99)
	inputs := map[string][]float64{"empty": {}, "one": {0.25}, "all-tied": make([]float64, 50)}
	for _, distinct := range []uint64{2, 5, 1000} {
		ranks := make([]float64, 300)
		for i := range ranks {
			x = xorshift64(x)
			ranks[i] = float64(x%distinct) / 1000
		}
		inputs[fmt.Sprintf("%d-values", distinct)] = ranks
	}
	for name, ranks := range inputs {
		for _, k := range []int{0, 1, 3, topK, len(ranks), len(ranks) + 7} {
			got, want := topRanks(ranks, k), topRanksBySort(ranks, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d entries, want %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: top[%d] = %+v, full sort gives %+v", name, k, i, got[i], want[i])
				}
			}
			if got == nil {
				t.Errorf("%s k=%d: nil reply would serialize as null, not []", name, k)
			}
		}
	}
}

// TestServedPageRankMatchesRef holds the served pagerank reply to
// PageRankRef over the dataset's plain CSR, regenerated from
// BuildDataset's generator parameters, bit for bit: the iteration count,
// the rank sum in vertex order and every top-10 entry. The reference
// never sees the smart-array layout, so the oracle holds whatever layout
// the dataset serves; the layout itself is pinned here too ("V": edge ids
// at 32 bits, begins bit-packed below 64), so changing it is deliberate.
func TestServedPageRankMatchesRef(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if g.Edge.Bits() != 32 || g.REdge.Bits() != 32 {
		t.Errorf("edge/redge at %d/%d bits, the served layout stores edge ids at 32", g.Edge.Bits(), g.REdge.Bits())
	}
	if g.Begin.Bits() >= 64 || g.RBegin.Bits() >= 64 {
		t.Errorf("begin/rbegin at %d/%d bits, the served layout bit-packs them below 64", g.Begin.Bits(), g.RBegin.Bits())
	}
	// newTestServer's Seed is 7; BuildDataset seeds the generator with Seed+1.
	csr, err := graph.GeneratePowerLaw(testVertices, defaultGraphDegree, graphExponent, 7+1)
	if err != nil {
		t.Fatal(err)
	}
	if csr.NumEdges != g.NumEdges {
		t.Fatalf("regenerated CSR has %d edges, the served graph %d", csr.NumEdges, g.NumEdges)
	}
	for _, iters := range []int{5, analytics.DefaultPageRankConfig().MaxIters} {
		cfg := analytics.DefaultPageRankConfig()
		cfg.MaxIters = iters
		ranks, wantIters := analytics.PageRankRef(csr, cfg)
		var wantSum float64
		for _, r := range ranks {
			wantSum += r
		}
		wantTop := topRanksBySort(ranks, topK)

		status, env := postQuery(t, ts, map[string]any{"dataset": "demo", "op": "pagerank", "iters": iters})
		if status != http.StatusOK {
			t.Fatalf("iters=%d: status %d: %s", iters, status, env["error"])
		}
		if got := resultField[int](t, env, "iters"); got != wantIters {
			t.Errorf("iters=%d: served %d iterations, PageRankRef %d", iters, got, wantIters)
		}
		if got := resultField[float64](t, env, "rank_sum"); math.Float64bits(got) != math.Float64bits(wantSum) {
			t.Errorf("iters=%d: rank_sum %v, PageRankRef's ranks sum to %v", iters, got, wantSum)
		}
		top := resultField[[]VertexRank](t, env, "top")
		if len(top) != len(wantTop) {
			t.Fatalf("iters=%d: %d top entries, want %d", iters, len(top), len(wantTop))
		}
		for i := range wantTop {
			if top[i].Vertex != wantTop[i].Vertex || math.Float64bits(top[i].Rank) != math.Float64bits(wantTop[i].Rank) {
				t.Errorf("iters=%d: top[%d] = %+v, PageRankRef gives %+v", iters, i, top[i], wantTop[i])
			}
		}
	}
}

// TestServedGraphDecodePathMatchesTypedView runs PageRank on the graph
// graph_rank serves (BuildDataset's generator and layout at 100 000
// vertices) through both of sumInEdges' edge sources: the served 32-bit
// redge read in place through its typed view, then the same redge
// re-encoded off BitPacked, and the graph built at "V+E"'s compressed
// edge width, both read through View.Read windows. Every run must read
// ranks bit-identical to the typed-view run and to PageRankRef.
func TestServedGraphDecodePathMatchesTypedView(t *testing.T) {
	const n = 100000
	rt := rts.New(machine.UMA(2))
	defer rt.Close()
	// Seed 0 seeds the generator with 1.
	csr, err := graph.GeneratePowerLaw(n, defaultGraphDegree, graphExponent, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := analytics.DefaultPageRankConfig()
	cfg.MaxIters = 5
	want, wantIters := analytics.PageRankRef(csr, cfg)
	check := func(name string, g *graph.SmartCSR, typed bool) {
		t.Helper()
		v := g.REdge.View(0)
		if _, ok := core.WordsAs[uint32](&v); ok != typed {
			t.Fatalf("%s: redge has a 32-bit typed view: %v, want %v", name, ok, typed)
		}
		ranks, iters, _, err := analytics.PageRank(rt, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if iters != wantIters {
			t.Errorf("%s: %d iterations, PageRankRef %d", name, iters, wantIters)
		}
		for i := range want {
			if math.Float64bits(ranks[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: rank[%d] = %v, PageRankRef %v", name, i, ranks[i], want[i])
			}
		}
	}

	d, err := BuildDataset(rt, DatasetSpec{Name: "g", Vertices: n})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Free()
	check("served", d.Graph, true)
	if _, err := d.Graph.REdge.Reencode(encoding.Plain, 0); err != nil {
		t.Fatal(err)
	}
	check("served, redge re-encoded Plain", d.Graph, false)

	edges, err := graph.PowerLawEdges(n, defaultGraphDegree, graphExponent, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildSmart(rt.Memory(), n, edges, graph.Layout{
		Placement: memsim.Interleaved, CompressBegin: true, CompressEdge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	if g.REdge.Bits() >= 32 {
		t.Fatalf("CompressEdge stores redge at %d bits, want below 32", g.REdge.Bits())
	}
	check("V+E", g, false)
}

// TestServedPageRankFreesProfiles runs the graph_rank request 50 times
// against a server whose arrays register with a telemetry registry. The
// dataset's PageRanker is built with the server, one lease included, so
// serving one query at a time allocates no array at all: the registry and
// the simulated memory must hold exactly what they held after the build
// through every query, the first included, and across forced GCs, which
// would empty a sync.Pool of leases. Freeing the dataset must then return
// both to what they held before it was built — what a lease pool that
// dropped leases without freeing them would leak.
func TestServedPageRankFreesProfiles(t *testing.T) {
	const rankRequest = `{"dataset":"demo","op":"pagerank","iters":5,"explain":true}`
	reg := obs.NewArrayRegistry()
	rt := rts.New(machine.UMA(4))
	mem := rt.Memory()
	regEmpty, memEmpty := reg.Len(), mem.TotalUsedBytes()
	srv, err := NewServer(rt, DefaultConfig(), []DatasetSpec{{Name: "demo", Vertices: testVertices, Seed: 7}}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	regBuilt, memBuilt := reg.Len(), mem.TotalUsedBytes()
	for i := 0; i < 50; i++ {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(rankRequest)))
		if w.Code != http.StatusOK {
			body, _ := io.ReadAll(w.Body)
			t.Fatalf("status %d: %s", w.Code, body)
		}
		if i%10 == 9 {
			runtime.GC() // a pooled lease survives one GC as a victim,
			runtime.GC() // not two
		}
		if n, used := reg.Len(), mem.TotalUsedBytes(); n != regBuilt || used != memBuilt {
			t.Fatalf("after pagerank %d: %d arrays and %d bytes, %d and %d once built", i+1, n, used, regBuilt, memBuilt)
		}
	}
	srv.Close()
	ds.Free()
	if n, used := reg.Len(), mem.TotalUsedBytes(); n != regEmpty || used != memEmpty {
		t.Fatalf("dataset freed: %d arrays and %d bytes, %d and %d before it was built", n, used, regEmpty, memEmpty)
	}
}

// BenchmarkServedPageRank is the benchmark's graph_rank workload without
// the harness: its request body through Server.Handler() on a server
// configured as saserve ships (small machine, cache on,
// array registry attached, 100 000 vertices — no table,
// the plan never touches one), from 2 concurrent callers. ns/op is wall
// time per query; B/op and allocs/op are what one served pagerank
// allocates; heap-live-MB is the Go heap's live bytes after the loop and
// a collection (runtime/metrics' /gc/heap/live:bytes, which /metrics
// exports), so what serving keeps — per-worker scratch above all — shows
// without the harness's RSS probe; profile it with -cpuprofile.
func BenchmarkServedPageRank(b *testing.B) {
	const rankRequest = `{"dataset":"demo","op":"pagerank","iters":5,"explain":true}`
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	rt := rts.New(machine.X52Small())
	cfg := DefaultConfig()
	cfg.CacheEntries = 1024
	srv, err := NewServer(rt, cfg, []DatasetSpec{{Name: "demo", Vertices: 100000, Degree: 8, Seed: 1}}, rec, reg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	handler := srv.Handler()

	const callers = 2
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += callers {
				w := httptest.NewRecorder()
				handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(rankRequest)))
				if w.Code != http.StatusOK {
					body, _ := io.ReadAll(w.Body)
					b.Errorf("status %d: %s", w.Code, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	b.ReportMetric(float64(live[0].Value.Uint64())/1e6, "heap-live-MB")
}
