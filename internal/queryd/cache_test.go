package queryd

import (
	"errors"
	"net/http"
	"testing"

	"smartarrays/internal/encoding"
)

// TestResultCacheLRU unit-tests the LRU mechanics: bound respected,
// least-recently-used entry evicted first, counters accurate. Results
// enter the cache the way served ones do, by landing a flight.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache()
	put := func(key string, v any, capacity int) { c.land(key, c.lead(key), v, nil, capacity) }
	put("a", 1, 2)
	put("b", 2, 2)
	if _, _, ok := c.join("a", 2); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	put("c", 3, 2) // evicts b
	if _, _, ok := c.join("b", 2); ok {
		t.Fatal("b should have been evicted")
	}
	if v, _, ok := c.join("a", 2); !ok || v.(int) != 1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	if v, _, ok := c.join("c", 2); !ok || v.(int) != 3 {
		t.Fatalf("c = %v, %v", v, ok)
	}
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits 1 miss", st)
	}
	// Capacity 0 means off: landing caches nothing.
	c2 := newResultCache()
	c2.land("x", c2.lead("x"), 1, nil, 0)
	if _, _, ok := c2.join("x", 0); ok {
		t.Fatal("capacity 0 cached an entry")
	}
}

// TestFlightJoinAndLand unit-tests the flight table: an arrival joins the
// flight executing its key whatever the capacity, a flight registered
// meanwhile takes over new arrivals while the old one's followers keep
// theirs, and landing hands every follower the leader's outcome — a
// failure included, which is never cached.
func TestFlightJoinAndLand(t *testing.T) {
	c := newResultCache()
	first := c.lead("k")
	if _, f, _ := c.join("k", 0); f != first {
		t.Fatal("arrival did not join the flight in progress")
	}
	second := c.lead("k")
	if _, f, _ := c.join("k", 0); f != second {
		t.Fatal("arrival did not join the newest flight")
	}
	c.land("k", first, 1, nil, 4)
	<-first.done
	if first.result != 1 {
		t.Fatalf("first flight result = %v", first.result)
	}
	if _, f, hit := c.join("k", 4); !hit || f != nil {
		t.Fatalf("landed result not cached: hit=%v flight=%v", hit, f)
	}
	boom := errors.New("boom")
	c.land("k", second, nil, boom, 4)
	if second.err != boom {
		t.Fatalf("second flight err = %v", second.err)
	}
	if _, f, _ := c.join("k", 0); f != nil {
		t.Fatal("a landed flight is still joinable")
	}
	if st := c.stats(); st.Coalesced != 2 || st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 coalesced, 1 hit, 0 misses, 1 entry", st)
	}
}

// TestQueryCacheHitsRepeatedQueries checks the serving behavior: the
// first execution misses, the identical repeat hits (bit-identical
// result, cached flag set, admission skipped), and commuted predicate
// order hits the same entry.
func TestQueryCacheHitsRepeatedQueries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	srv, ts := newTestServer(t, cfg)

	body := map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where": []map[string]any{
			{"column": "flag", "op": "=", "value": 1},
			{"column": "region", "op": "<", "value": 8},
		},
	}
	status, env1 := postQuery(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, env1["error"])
	}
	if envFlag(t, env1, "cached") {
		t.Fatal("first execution claimed a cache hit")
	}
	status, env2 := postQuery(t, ts, body)
	if status != http.StatusOK || !envFlag(t, env2, "cached") {
		t.Fatalf("repeat not served from cache (status %d)", status)
	}
	if string(env1["result"]) != string(env2["result"]) {
		t.Fatalf("cached result %s != executed %s", env2["result"], env1["result"])
	}

	// Same conjunction, commuted order: must hit the same entry.
	body["where"] = []map[string]any{
		{"column": "region", "op": "<", "value": 8},
		{"column": "flag", "op": "=", "value": 1},
	}
	if _, env3 := postQuery(t, ts, body); !envFlag(t, env3, "cached") {
		t.Fatal("commuted predicates missed the cache")
	}

	st := srv.cache.stats()
	if st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("cache stats = %+v, want >=2 hits >=1 miss", st)
	}
}

// TestQueryCacheStaleNeverServes pins the invalidation contract: any
// event that can change an answer — a control-plane swap or a column
// re-encode (generation bump) — makes old entries unreachable.
func TestQueryCacheStaleNeverServes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	srv, ts := newTestServer(t, cfg)
	body := map[string]any{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount"}

	postQuery(t, ts, body)
	if _, env := postQuery(t, ts, body); !envFlag(t, env, "cached") {
		t.Fatal("warm-up repeat did not hit")
	}

	// Config swap bumps the snapshot version: next query must re-execute.
	if err := srv.apply(controlRequest{Config: &cfg}); err != nil {
		t.Fatal(err)
	}
	if _, env := postQuery(t, ts, body); envFlag(t, env, "cached") {
		t.Fatal("cache served across a config swap")
	}
	if _, env := postQuery(t, ts, body); !envFlag(t, env, "cached") {
		t.Fatal("cache did not repopulate after the swap")
	}

	// Re-encoding the target column bumps its generation: the entry keyed
	// on the old generation must never serve again.
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Table.ReencodeColumn("amount", encoding.FoR, 0); err != nil {
		t.Fatal(err)
	}
	_, env := postQuery(t, ts, body)
	if envFlag(t, env, "cached") {
		t.Fatal("cache served a result for a re-encoded column")
	}

	// Adding a dataset bumps the version too; existing entries go stale but the
	// recomputed answer must still be correct (values were preserved).
	if err := srv.apply(controlRequest{Datasets: []DatasetSpec{{Name: "tiny", Rows: 100}}}); err != nil {
		t.Fatal(err)
	}
	status, env2 := postQuery(t, ts, body)
	if status != http.StatusOK || envFlag(t, env2, "cached") {
		t.Fatalf("post-add query: status %d cached %v", status, envFlag(t, env2, "cached"))
	}
	if string(env["result"]) != string(env2["result"]) {
		t.Fatalf("recomputed result drifted: %s != %s", env["result"], env2["result"])
	}
}

// TestQueryCacheOffByDefault pins that DefaultConfig leaves caching off:
// repeats re-execute and the cached flag never appears.
func TestQueryCacheOffByDefault(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	body := map[string]any{"dataset": "demo", "op": "degree"}
	postQuery(t, ts, body)
	if _, env := postQuery(t, ts, body); envFlag(t, env, "cached") {
		t.Fatal("cache served with CacheEntries = 0")
	}
	if st := srv.cache.stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache touched: %+v", st)
	}
}
