package queryd

import (
	"strings"
	"testing"
)

// TestServedAllocations is the allocation ratchet on the request shapes
// the benchmark serves, through Server.Handler() on a server wired as
// saserve ships (NewServer attaches the recorder and the array registry,
// so every executed scan also folds its predicates' selectivity into the
// registry): a result-cache hit,
// a selective miss (an explained 1 000-row id window, which the zone maps
// prune to a few morsels) and an explained pagerank. Each ceiling is the
// count measured when the ratchet was set, at -cpu 1, 2 and 4 alike
// (AllocsPerRun pins GOMAXPROCS to 1), plus the stated margin. The hit
// path runs no loop and has no margin: one more allocation per hit fails.
// Lower a ceiling when a change saves allocations.
func TestServedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	srv, _ := newTestServer(t, cfg)
	handler := srv.Handler()
	cases := []struct {
		name             string
		body             string
		measured, margin float64
	}{
		{"hit", `{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount",` +
			`"where":[{"column":"region","op":"<","value":8}]}`, 56, 0},
		// Misses run loops, and how many workers take a batch of each is
		// timing-dependent: a scan allocates one accounting row per worker
		// that does. The margins absorb that.
		{"selective_miss", `{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount",` +
			`"where":[{"column":"id","op":">=","value":5000},{"column":"id","op":"<","value":6000}],"explain":true}`, 83, 2},
		{"pagerank", `{"dataset":"demo","op":"pagerank","iters":5,"explain":true}`, 76, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serveQuery(t, handler, c.body) // warm: fills the cache and the rank-array free list
			if w := serveQuery(t, handler, c.body); strings.Contains(w.Body.String(), `"cached":true`) != (c.name == "hit") {
				t.Fatalf("only the hit case may be answered from the cache: %s", w.Body)
			}
			got := testing.AllocsPerRun(100, func() { serveQuery(t, handler, c.body) })
			if ceiling := c.measured + c.margin; got > ceiling {
				t.Fatalf("%v allocations per request, ceiling %v (measured %v + margin %v)", got, ceiling, c.measured, c.margin)
			}
		})
	}
}
