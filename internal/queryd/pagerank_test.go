package queryd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// topRanksBySort is the full stable sort topRanks replaced: rank
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
// against a server whose arrays register with a telemetry registry: every
// execution allocates and frees its property arrays, so the registry must
// end the run holding exactly the arrays it held before.
func TestServedPageRankFreesProfiles(t *testing.T) {
	const rankRequest = `{"dataset":"demo","op":"pagerank","iters":5,"explain":true}`
	reg := obs.NewArrayRegistry()
	prev := core.ActiveArrayRegistry()
	core.SetArrayRegistry(reg)
	t.Cleanup(func() { core.SetArrayRegistry(prev) })
	rt := rts.New(machine.UMA(4))
	rt.SetArrayProfiling(reg)
	srv, err := NewServer(rt, DefaultConfig(), []DatasetSpec{{Name: "demo", Vertices: testVertices, Seed: 7}}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	handler := srv.Handler()
	before := reg.Len()
	for i := 0; i < 50; i++ {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(rankRequest)))
		if w.Code != http.StatusOK {
			body, _ := io.ReadAll(w.Body)
			t.Fatalf("status %d: %s", w.Code, body)
		}
	}
	if after := reg.Len(); after != before {
		t.Fatalf("registry holds %d arrays after 50 pageranks, %d before", after, before)
	}
}

// BenchmarkServedPageRank is the benchmark's graph_rank workload without
// the harness: its request body through Server.Handler() on a server
// configured as saserve ships (small machine, cache on,
// array registry attached, 100 000 vertices — no table,
// the plan never touches one), from 2 concurrent callers. ns/op is wall
// time per query; profile it with -cpuprofile.
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
