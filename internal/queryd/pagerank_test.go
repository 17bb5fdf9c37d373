package queryd

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
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
	prev := core.ActiveArrayRegistry()
	core.SetArrayRegistry(reg)
	t.Cleanup(func() { core.SetArrayRegistry(prev) })
	rt := rts.New(machine.UMA(4))
	rt.SetArrayProfiling(reg)
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
// allocates; profile it with -cpuprofile.
func BenchmarkServedPageRank(b *testing.B) {
	const rankRequest = `{"dataset":"demo","op":"pagerank","iters":5,"explain":true}`
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	prev := core.ActiveArrayRegistry()
	core.SetArrayRegistry(reg)
	b.Cleanup(func() { core.SetArrayRegistry(prev) })
	rt := rts.New(machine.X52Small())
	rt.SetRecorder(rec)
	rt.SetArrayProfiling(reg)
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
}
