// End-to-end tests for query profiling: "explain": true on both table
// ops, the chunk-accounting invariant, agreement between profile fields
// and the /stats counters (cache and flights, admission), the
// /debug/slowlog and /debug/query/<id> surfaces, what EXPLAIN shows of
// the MIN/MAX zone walk, and the -race exercises of profiled and
// early-stopped queries against config swaps and live re-encoding.
package queryd

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/colstore"
	"smartarrays/internal/encoding"
	"smartarrays/internal/obs"
)

// profileOf decodes the inline profile from an explain response.
func profileOf(t *testing.T, env map[string]json.RawMessage) *obs.QueryProfile {
	t.Helper()
	raw, ok := env["profile"]
	if !ok {
		t.Fatal("explain response carried no profile")
	}
	var p obs.QueryProfile
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("decoding profile: %v", err)
	}
	return &p
}

// checkStageSum asserts the stage spans account for the total: their sum
// may not exceed TotalNs and must reach 95% of it. The handler records
// stages as contiguous laps from the request's arrival, the last closing
// right before Finalize, so the sum is exact up to the two clock reads
// around Finalize — which is why the chaos tests, whose busy writers
// deschedule the handler at will, hold the same floor as the quiet ones.
func checkStageSum(t *testing.T, p *obs.QueryProfile) {
	t.Helper()
	const floor = 0.95
	var sum uint64
	for _, st := range p.Stages {
		sum += st.Ns
	}
	if p.TotalNs == 0 {
		t.Fatal("TotalNs == 0")
	}
	if sum > p.TotalNs {
		t.Errorf("stage sum %d exceeds TotalNs %d", sum, p.TotalNs)
	}
	if float64(sum) < floor*float64(p.TotalNs) {
		t.Errorf("stage sum %d is under %.0f%% of TotalNs %d — unaccounted time", sum, floor*100, p.TotalNs)
	}
}

// checkChunkInvariant asserts every profiled column obeys
// scanned + pruned == chunks for a full-table pass.
func checkChunkInvariant(t *testing.T, p *obs.QueryProfile, wantChunks uint64) {
	t.Helper()
	for _, c := range p.Columns {
		if wantChunks > 0 && c.Chunks != wantChunks {
			t.Errorf("column %s (%s): %d chunks, want %d", c.Column, c.Role, c.Chunks, wantChunks)
		}
		if c.ChunksScanned+c.ChunksPruned != c.Chunks {
			t.Errorf("column %s (%s): scanned %d + pruned %d != chunks %d",
				c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks)
		}
		if c.Codec == "" {
			t.Errorf("column %s: empty codec", c.Column)
		}
	}
}

func stageNames(p *obs.QueryProfile) []string {
	names := make([]string, len(p.Stages))
	for i, st := range p.Stages {
		names[i] = st.Name
	}
	return names
}

// TestExplainAggregateProfile runs EXPLAIN ANALYZE on a predicated
// aggregate with the cache off: the profile must name every
// lifecycle stage, satisfy the chunk invariant on both touched columns,
// and record the scheduler's morsel work.
func TestExplainAggregateProfile(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	status, env := postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where":   []map[string]any{{"column": "region", "op": "<", "value": 8}},
		"explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, env["error"])
	}
	p := profileOf(t, env)

	var qid uint64
	if err := json.Unmarshal(env["query_id"], &qid); err != nil || qid == 0 || p.ID != qid {
		t.Fatalf("profile id %d vs query_id %d (err %v)", p.ID, qid, err)
	}
	if p.Status != "ok" || p.HTTPStatus != http.StatusOK {
		t.Fatalf("profile status %q/%d, want ok/200", p.Status, p.HTTPStatus)
	}
	if p.Op != "aggregate" || p.Dataset != "demo" || p.Plan == "" {
		t.Errorf("identity fields: %+v", p)
	}
	if p.Cache != obs.CacheBypass {
		t.Errorf("cache = %q, want bypass (explain skips cache and flights)", p.Cache)
	}

	want := map[string]bool{"parse": false, "admission": false, "execute": false}
	for _, name := range stageNames(p) {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("stage %q missing from %v", name, stageNames(p))
		}
	}
	checkStageSum(t, p)

	chunks := uint64((testRows + 63) / 64)
	if len(p.Columns) != 2 {
		t.Fatalf("profiled %d columns, want 2 (predicate + target): %+v", len(p.Columns), p.Columns)
	}
	roles := map[string]string{}
	for _, c := range p.Columns {
		roles[c.Column] = c.Role
	}
	if roles["region"] != obs.RolePredicate || roles["amount"] != obs.RoleTarget {
		t.Errorf("column roles = %v", roles)
	}
	checkChunkInvariant(t, p, chunks)

	if p.Loops == 0 || p.MorselsClaimed == 0 {
		t.Errorf("no scheduler work recorded: loops=%d claimed=%d", p.Loops, p.MorselsClaimed)
	}

	// An unpredicated min folds one super zone's chunk bounds and accounts
	// the super zones the zone walk never visits as pruned: the invariant
	// still holds.
	status, env = postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "min", "column": "amount", "explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("min status %d", status)
	}
	checkChunkInvariant(t, profileOf(t, env), chunks)
}

// TestExplainGroupByProfile is the group-by half of the acceptance
// check: three roles (predicate, key, target), same invariants, and
// predicates listed in canonical order on both ops.
func TestExplainGroupByProfile(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	status, env := postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount",
		"where":   []map[string]any{{"column": "flag", "op": "=", "value": 1}},
		"explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, env["error"])
	}
	p := profileOf(t, env)
	if p.Status != "ok" || p.Op != "groupby" {
		t.Fatalf("profile = %q/%q", p.Status, p.Op)
	}
	checkStageSum(t, p)
	if len(p.Columns) != 3 {
		t.Fatalf("profiled %d columns, want 3 (predicate + key + target): %+v", len(p.Columns), p.Columns)
	}
	roles := map[string]string{}
	for _, c := range p.Columns {
		roles[c.Column] = c.Role
	}
	if roles["flag"] != obs.RolePredicate || roles["region"] != obs.RoleKey || roles["amount"] != obs.RoleTarget {
		t.Errorf("column roles = %v", roles)
	}
	checkChunkInvariant(t, p, uint64((testRows+63)/64))

	// Predicates are reported in canonical signature order whatever order
	// the caller wrote them in: "region…" sorts after "flag…".
	where := []map[string]any{{"column": "region", "op": "<", "value": 8}, {"column": "flag", "op": "=", "value": 1}}
	for _, tc := range []struct {
		body map[string]any
		want []string
	}{
		{map[string]any{"op": "aggregate", "agg": "sum", "column": "amount", "where": where},
			[]string{"flag/predicate", "region/predicate", "amount/target"}},
		{map[string]any{"op": "aggregate", "agg": "count", "column": "amount", "where": where[:1]},
			[]string{"region/predicate"}},
		{map[string]any{"op": "groupby", "key": "region", "agg": "max", "column": "amount", "where": where},
			[]string{"flag/predicate", "region/predicate", "region/key", "amount/target"}},
	} {
		tc.body["dataset"], tc.body["explain"] = "demo", true
		status, env := postQuery(t, ts, tc.body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, env["error"])
		}
		var order []string
		for _, c := range profileOf(t, env).Columns {
			order = append(order, c.Column+"/"+c.Role)
		}
		if !slices.Equal(order, tc.want) {
			t.Errorf("%v: columns %v, want %v", tc.body, order, tc.want)
		}
	}
}

// TestExplainPlanTimePruning pins what EXPLAIN shows of plan-time zone
// pruning on the sorted id column: a 64-row window costs one loop of at
// most the four morsels two super zones cut into (a full pass is ten), a
// window past the table costs no loop at all and answers the aggregate's
// identity, and in both the dead runs' chunks are accounted as pruned for
// every column, so scanned + pruned == chunks still holds.
func TestExplainPlanTimePruning(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	chunks := uint64((testRows + 63) / 64)
	window := func(lo, hi uint64) []map[string]any {
		return []map[string]any{{"column": "id", "op": ">=", "value": lo}, {"column": "id", "op": "<", "value": hi}}
	}
	shapes := []map[string]any{
		{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount"},
		{"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount"},
	}
	for _, shape := range shapes {
		grouped := shape["op"] == "groupby"
		wantColumns := 3 // id twice (one entry per predicate) + target
		if grouped {
			wantColumns = 4 // + key
		}
		run := func(lo, hi uint64) (*obs.QueryProfile, map[string]json.RawMessage) {
			body := map[string]any{"explain": true, "where": window(lo, hi)}
			for k, v := range shape {
				body[k] = v
			}
			status, env := postQuery(t, ts, body)
			if status != http.StatusOK {
				t.Fatalf("%s [%d,%d): status %d: %s", shape["op"], lo, hi, status, env["error"])
			}
			p := profileOf(t, env)
			if len(p.Columns) != wantColumns {
				t.Fatalf("%s [%d,%d): profiled %d columns, want %d: %+v", shape["op"], lo, hi, len(p.Columns), wantColumns, p.Columns)
			}
			checkChunkInvariant(t, p, chunks)
			return p, env
		}

		// 64 rows straddling the first super-zone boundary.
		p, env := run(4096-32, 4096+32)
		if p.Loops != 1 || p.MorselsClaimed == 0 || p.MorselsClaimed > 4 {
			t.Errorf("%s 64-row window: loops=%d morsels_claimed=%d, want one loop of at most 4", shape["op"], p.Loops, p.MorselsClaimed)
		}
		for _, c := range p.Columns {
			if c.ChunksScanned > 2 {
				t.Errorf("%s 64-row window: column %s (%s) scanned %d chunks, the window touches 2", shape["op"], c.Column, c.Role, c.ChunksScanned)
			}
		}
		if grouped {
			if groups := resultField[[]GroupResult](t, env, "groups"); len(groups) == 0 {
				t.Errorf("groupby 64-row window returned no groups")
			}
		} else if v := resultField[uint64](t, env, "value"); v == 0 {
			t.Errorf("aggregate 64-row window summed to 0")
		}

		// Past the last row: nothing survives the plan.
		p, env = run(testRows+100, testRows+200)
		if p.Loops != 0 || p.MorselsClaimed != 0 {
			t.Errorf("%s dead window: loops=%d morsels_claimed=%d, want no loop", shape["op"], p.Loops, p.MorselsClaimed)
		}
		for _, c := range p.Columns {
			if c.ChunksScanned != 0 {
				t.Errorf("%s dead window: column %s (%s) scanned %d chunks", shape["op"], c.Column, c.Role, c.ChunksScanned)
			}
		}
		if grouped {
			if groups := resultField[[]GroupResult](t, env, "groups"); len(groups) != 0 {
				t.Errorf("groupby dead window returned groups %+v", groups)
			}
		} else if v := resultField[uint64](t, env, "value"); v != 0 {
			t.Errorf("aggregate dead window = %d, want 0", v)
		}
	}
}

// TestProfileCacheAgreement checks every query's profiled cache outcome
// against the /stats cache counters: one miss then one hit, with explain
// bypassing both lookup and fill.
func TestProfileCacheAgreement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	_, ts := newTestServer(t, cfg)
	body := map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where": []map[string]any{{"column": "region", "op": "<", "value": 8}},
	}

	for i, wantCached := range []bool{false, true} {
		status, env := postQuery(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("query %d status %d", i, status)
		}
		var cached bool
		if raw, ok := env["cached"]; ok {
			_ = json.Unmarshal(raw, &cached)
		}
		if cached != wantCached {
			t.Fatalf("query %d cached=%v, want %v", i, cached, wantCached)
		}
	}

	// Non-explain profiles are retained, not inlined: fetch them by ID and
	// check the recorded outcomes.
	for qid, want := range map[uint64]string{1: obs.CacheMiss, 2: obs.CacheHit} {
		p := fetchProfile(t, ts, qid)
		if p.Cache != want {
			t.Errorf("query %d profile cache = %q, want %q", qid, p.Cache, want)
		}
	}

	// Explain bypasses the cache in both directions and says so.
	body["explain"] = true
	status, env := postQuery(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("explain status %d", status)
	}
	if p := profileOf(t, env); p.Cache != obs.CacheBypass {
		t.Errorf("explain profile cache = %q, want bypass", p.Cache)
	}

	stats := fetchStats(t, ts)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Errorf("stats cache = %+v, want exactly 1 hit / 1 miss (explain must not count)", stats.Cache)
	}
}

// TestEveryQueryProfiled sends one query per outcome without explain —
// an executed miss, a cache hit, a plan that fails to parse, an unknown
// dataset, an unknown column — and checks that every reply's query_id
// resolves to a profile with the reply's status, that the slow-query log
// observed each one, and that the executed miss carries its scan's
// column accounting.
func TestEveryQueryProfiled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	_, ts := newTestServer(t, cfg)
	scan := map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where": []map[string]any{{"column": "region", "op": "<", "value": 8}},
	}
	for i, c := range []struct {
		body   map[string]any
		status int
		cache  string
	}{
		{scan, http.StatusOK, obs.CacheMiss},
		{scan, http.StatusOK, obs.CacheHit},
		{map[string]any{"dataset": "demo", "op": "nonsense"}, http.StatusBadRequest, ""},
		{map[string]any{"dataset": "nope", "op": "degree"}, http.StatusNotFound, ""},
		{map[string]any{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "nope"}, http.StatusUnprocessableEntity, obs.CacheBypass},
	} {
		status, env := postQuery(t, ts, c.body)
		if status != c.status {
			t.Fatalf("query %d: status %d, want %d", i, status, c.status)
		}
		var qid uint64
		if err := json.Unmarshal(env["query_id"], &qid); err != nil {
			t.Fatalf("query %d: no query_id: %v", i, err)
		}
		p := fetchProfile(t, ts, qid)
		if p.HTTPStatus != c.status || p.Cache != c.cache {
			t.Errorf("query %d: profile http_status %d cache %q, want %d %q", i, p.HTTPStatus, p.Cache, c.status, c.cache)
		}
		if i == 0 {
			if len(p.Columns) != 2 {
				t.Errorf("executed miss profiled %d columns, want predicate + target", len(p.Columns))
			}
			checkChunkInvariant(t, p, 0)
		}
	}
	if slog := fetchSlowlogSnapshot(t, ts); slog.Observed != 5 {
		t.Errorf("slowlog observed %d profiles, want 5", slog.Observed)
	}
}

// TestOneRecordPerQuery sends a /query of every outcome — an executed
// miss, a cache hit, an explain, a 400, a 404, a 405 (GET /query), a 422,
// and on one slot with no queue an explained pagerank and a second one
// shed with 429 while the first holds the slot — and checks that every
// per-query series reads one record: each reply's query_id resolves to a
// profile with the reply's status, an explain reply's wall_ms is its
// profile's total_ns, and /stats, the tenant series and the slow log
// count the same replies.
func TestOneRecordPerQuery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	cfg.MaxInFlight, cfg.MaxQueue = 1, 0
	srv, ts := newTestServer(t, cfg)
	scan := map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where": []map[string]any{{"column": "region", "op": "<", "value": 8}},
	}
	explain := maps.Clone(scan)
	explain["explain"] = true
	for i, c := range []struct {
		body   map[string]any
		status int
	}{
		{scan, http.StatusOK},
		{scan, http.StatusOK},
		{explain, http.StatusOK},
		{map[string]any{"dataset": "demo", "op": "nonsense"}, http.StatusBadRequest},
		{map[string]any{"dataset": "nope", "op": "degree"}, http.StatusNotFound},
		{nil, http.StatusMethodNotAllowed},
		{map[string]any{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "nope"}, http.StatusUnprocessableEntity},
	} {
		status, env, err := send(ts, c.body)
		if err != nil {
			t.Fatal(err)
		}
		if status != c.status {
			t.Fatalf("query %d: status %d, want %d", i, status, c.status)
		}
		var qid uint64
		if err := json.Unmarshal(env["query_id"], &qid); err != nil {
			t.Fatalf("query %d: no query_id: %v", i, err)
		}
		if p := fetchProfile(t, ts, qid); p.HTTPStatus != c.status {
			t.Errorf("query %d: profile http_status %d, want %d", i, p.HTTPStatus, c.status)
		}
		if c.body != nil && c.body["explain"] == true {
			checkWallMS(t, env)
		}
	}

	// An explained pagerank held in execution takes the only slot, so a
	// second one arriving meanwhile is shed.
	pagerank := func(iters int) map[string]any {
		return map[string]any{"dataset": "demo", "op": "pagerank", "iters": iters, "explain": true, "tenant": "acme"}
	}
	release := holdWorkers(t, srv.rt)
	held := postAsync(ts, pagerank(30))
	waitFor(t, "the held pagerank's slot", func() bool { return srv.adm.Stats().InFlight == 1 })
	if r := recv(t, postAsync(ts, pagerank(31))); r.code != http.StatusTooManyRequests {
		t.Errorf("pagerank while the slot is held: status %d, want 429", r.code)
	}
	release()
	if r := recv(t, held); r.code != http.StatusOK {
		t.Errorf("held pagerank: status %d, want 200", r.code)
	} else {
		checkWallMS(t, r.env)
	}
	checkOneRecord(t, ts)
}

// TestOneRecordPerQueryConcurrent is TestOneRecordPerQuery's mix from
// concurrent clients on two slots and one queue place, so misses, hits,
// coalesced followers, sheds and every error status interleave: once the
// clients are done the series must still agree.
func TestOneRecordPerQueryConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	cfg.MaxInFlight, cfg.MaxQueue = 2, 1
	_, ts := newTestServer(t, cfg)
	scan := map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where": []map[string]any{{"column": "flag", "op": "==", "value": 1}},
	}
	explain := maps.Clone(scan)
	explain["explain"] = true
	mix := []map[string]any{
		scan, explain,
		{"dataset": "demo", "op": "pagerank", "iters": 20, "explain": true},
		{"dataset": "demo", "op": "pagerank", "iters": 21},
		{"dataset": "demo", "op": "nonsense"},
		{"dataset": "nope", "op": "degree"},
		nil,
		{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "nope"},
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2*len(mix); i++ {
				body := mix[(c+i)%len(mix)]
				status, env, err := send(ts, body)
				if err != nil {
					t.Error(err)
					return
				}
				if status == http.StatusOK && body["explain"] == true {
					checkWallMS(t, env)
				}
			}
		}(c)
	}
	wg.Wait()
	checkOneRecord(t, ts)
}

// send is post, except that a nil body is sent as GET /query (a 405).
func send(ts *httptest.Server, body map[string]any) (int, map[string]json.RawMessage, error) {
	if body != nil {
		return post(ts, body)
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var env map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env, err
}

// checkWallMS asserts that an explain reply's wall_ms is its inline
// profile's total_ns: the reply and the profile read one clock.
func checkWallMS(t *testing.T, env map[string]json.RawMessage) {
	t.Helper()
	var wallMS float64
	var p obs.QueryProfile
	if err := json.Unmarshal(env["wall_ms"], &wallMS); err != nil {
		t.Errorf("wall_ms: %v", err)
		return
	}
	if err := json.Unmarshal(env["profile"], &p); err != nil {
		t.Errorf("profile: %v", err)
		return
	}
	if ns := uint64(math.Round(wallMS * 1e6)); ns != p.TotalNs {
		t.Errorf("query %d: wall_ms %v is %d ns, profile total_ns %d", p.ID, wallMS, ns, p.TotalNs)
	}
}

// checkOneRecord asserts that the per-query series agree on a quiet
// server: /stats' reply counters, the slow log and the tenant series each
// count every /query reply once, the tenant error series the non-200
// ones, the latency histogram the 200s and the queue-wait histogram the
// admitted queries.
func checkOneRecord(t *testing.T, ts *httptest.Server) {
	t.Helper()
	st := fetchStats(t, ts)
	replies := st.Served + st.Errors4xx + st.Errors5xx
	var requests, errs uint64
	for _, series := range st.Tenants {
		requests += series.Requests
		errs += series.Errors
	}
	if observed := fetchSlowlogSnapshot(t, ts).Observed; observed != replies || requests != replies {
		t.Errorf("served %d + errors_4xx %d + errors_5xx %d = %d replies, slow log observed %d, tenant requests %d",
			st.Served, st.Errors4xx, st.Errors5xx, replies, observed, requests)
	}
	if errs != st.Errors4xx+st.Errors5xx {
		t.Errorf("tenant errors %d, errors_4xx + errors_5xx %d", errs, st.Errors4xx+st.Errors5xx)
	}
	var latency, queueWait uint64
	if st.LatencyMS != nil {
		latency = st.LatencyMS.Count
	}
	if st.QueueWaitMS != nil {
		queueWait = st.QueueWaitMS.Count
	}
	if latency != st.Served {
		t.Errorf("latency_ms.count %d, served %d", latency, st.Served)
	}
	if queueWait != st.Admission.Admitted {
		t.Errorf("queue_wait_ms.count %d, admitted %d", queueWait, st.Admission.Admitted)
	}
}

// TestProfileSharedAgreement reconciles three views of every query's
// cache outcome: its profile, its reply and /stats.
// With the cache on, concurrent identical queries split into misses
// (executed), hits and coalesced followers; every query lands in exactly
// one, counted once by /stats, recorded once on its profile and flagged
// cached or shared on its reply to match. Explain lands in none.
func TestProfileSharedAgreement(t *testing.T) {
	cfg := flightConfig()
	cfg.CacheEntries = 64
	srv, ts := newFlightTestServer(t, cfg)
	bodies := flightTestBodies()

	var mu sync.Mutex
	var qids []uint64
	flags := map[string]uint64{}
	send := func(body map[string]any) {
		status, env, err := post(ts, body)
		if err != nil {
			t.Error(err)
			return
		}
		if status != http.StatusOK {
			t.Errorf("status %d: %s", status, env["error"])
			return
		}
		var qid uint64
		if err := json.Unmarshal(env["query_id"], &qid); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		qids = append(qids, qid)
		switch {
		case envFlag(t, env, "cached"):
			flags[obs.CacheHit]++
		case envFlag(t, env, "shared"):
			flags[obs.CacheCoalesced]++
		default:
			flags[obs.CacheMiss]++
		}
	}
	// Each round starts cold (a swap moves every key on) and sends every
	// body from two clients at once, until some query has coalesced. The
	// query count stays under the slow log's ring, so every profile is
	// retained.
	for round := 0; round < 20 && srv.cache.stats().Coalesced == 0; round++ {
		if err := srv.apply(controlRequest{Config: &cfg}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 2*len(bodies); c++ {
			wg.Add(1)
			go func(body map[string]any) {
				defer wg.Done()
				send(body)
			}(bodies[c%len(bodies)])
		}
		wg.Wait()
	}
	explain := maps.Clone(bodies[0])
	explain["explain"] = true
	status, env := postQuery(t, ts, explain)
	if status != http.StatusOK {
		t.Fatalf("explain status %d", status)
	}
	if p := profileOf(t, env); p.Cache != obs.CacheBypass {
		t.Errorf("explain profile cache = %q, want bypass", p.Cache)
	}

	profiled := map[string]uint64{}
	for _, qid := range qids {
		profiled[fetchProfile(t, ts, qid).Cache]++
	}
	st := fetchStats(t, ts).Cache
	counted := map[string]uint64{obs.CacheHit: st.Hits, obs.CacheMiss: st.Misses, obs.CacheCoalesced: st.Coalesced}
	var total uint64
	for outcome, n := range counted {
		total += n
		if profiled[outcome] != n || flags[outcome] != n {
			t.Errorf("%s: %d profiles, %d replies, /stats %d", outcome, profiled[outcome], flags[outcome], n)
		}
	}
	if total != uint64(len(qids)) {
		t.Errorf("/stats counted %d outcomes for %d queries (profiles %v)", total, len(qids), profiled)
	}
	if st.Coalesced == 0 {
		t.Error("no query coalesced")
	}
}

// TestShedProfileAgreement saturates admission with distinct queries:
// shed queries must emit minimal 429 profiles, and the slow-query log and
// per-tenant error series must agree with the admission counters.
func TestShedProfileAgreement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 0
	_, ts := newTestServer(t, cfg)

	var ok, rejected atomic.Uint64
	for round := 0; round < 10 && (ok.Load() == 0 || rejected.Load() == 0); round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, _ := postQuery(t, ts, map[string]any{
					"dataset": "demo", "op": "pagerank", "iters": 30 + i, "tenant": "acme",
				})
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				}
			}(i)
		}
		wg.Wait()
	}
	if ok.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("saturation did not produce both outcomes: ok=%d rejected=%d", ok.Load(), rejected.Load())
	}

	stats := fetchStats(t, ts)
	if stats.Admission.Shed != rejected.Load() {
		t.Errorf("admission shed %d, client saw %d 429s", stats.Admission.Shed, rejected.Load())
	}

	// Every query is profiled, so the slowlog's recent ring holds one
	// profile per request, and the shed ones carry the shed status.
	slog := fetchSlowlogSnapshot(t, ts)
	if slog.Observed != ok.Load()+rejected.Load() {
		t.Errorf("slowlog observed %d, want %d", slog.Observed, ok.Load()+rejected.Load())
	}
	var shedProfiles uint64
	for _, p := range slog.Recent {
		if p.Status == "shed" {
			shedProfiles++
			if p.HTTPStatus != http.StatusTooManyRequests || p.Error == "" {
				t.Errorf("shed profile malformed: %+v", p)
			}
		}
	}
	if shedProfiles != rejected.Load() {
		t.Errorf("slowlog retained %d shed profiles, want %d", shedProfiles, rejected.Load())
	}

	// The always-on tenant RED series must agree too: one error per shed.
	var acme *obs.TenantOpSnapshot
	for i := range stats.Tenants {
		if stats.Tenants[i].Tenant == "acme" && stats.Tenants[i].Op == "pagerank" {
			acme = &stats.Tenants[i]
		}
	}
	if acme == nil {
		t.Fatalf("no tenant series for acme/pagerank: %+v", stats.Tenants)
	}
	if acme.Requests != ok.Load()+rejected.Load() || acme.Errors != rejected.Load() {
		t.Errorf("tenant series %+v, want requests=%d errors=%d",
			acme, ok.Load()+rejected.Load(), rejected.Load())
	}
}

// TestDebugQuerySurfaces exercises /debug/slowlog and /debug/query/<id>:
// retained profiles resolve by ID, bad IDs 400, unknown IDs 404.
func TestDebugQuerySurfaces(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	status, env := postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount", "explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	inline := profileOf(t, env)

	looked := fetchProfile(t, ts, inline.ID)
	if looked.ID != inline.ID || looked.TotalNs != inline.TotalNs {
		t.Errorf("lookup returned a different profile: %+v vs %+v", looked, inline)
	}

	slog := fetchSlowlogSnapshot(t, ts)
	if slog.Observed < 1 || len(slog.Recent) < 1 {
		t.Errorf("slowlog empty after a profiled query: %+v", slog)
	}
	if len(slog.Top) < 1 {
		t.Errorf("top-K empty after a profiled query")
	}

	for path, want := range map[string]int{
		"/debug/query/not-a-number": http.StatusBadRequest,
		"/debug/query/999999":       http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestProfilesUnderSwapAndReencode is the -race exercise: explain
// queries hammer both table ops while the control plane toggles caching
// and the slow threshold and the scanned columns re-encode live.
// Profiles must stay well-formed and the chunk invariant must hold
// throughout.
func TestProfilesUnderSwapAndReencode(t *testing.T) {
	srv, ts := newTestServer(t, flightConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	bodies := []map[string]any{
		{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
			"where":   []map[string]any{{"column": "region", "op": "<", "value": 8}},
			"explain": true},
		{"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount",
			"where":   []map[string]any{{"column": "flag", "op": "=", "value": 1}},
			"explain": true},
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(2)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := flightConfig()
			cfg.CacheEntries = []int{0, 64}[i%2]
			cfg.SlowQueryMS = int64(1 + i%100)
			if err := srv.apply(controlRequest{Config: &cfg}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer chaos.Done()
		kinds := []encoding.Kind{encoding.FoR, encoding.BitPacked, encoding.Dict}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, col := range []string{"amount", "region", "flag"} {
				_, _ = ds.Table.ReencodeColumn(col, kinds[i%len(kinds)], 0)
			}
		}
	}()

	const clients, perClient = 6, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				status, env := postQuery(t, ts, bodies[i%len(bodies)])
				if status != http.StatusOK {
					t.Errorf("status %d under chaos: %s", status, env["error"])
					continue
				}
				p := profileOf(t, env)
				if p.Status != "ok" {
					t.Errorf("profile status %q under chaos", p.Status)
				}
				checkStageSum(t, p)
				if len(p.Columns) == 0 {
					t.Errorf("profile lost its columns: %+v", p)
				}
				checkChunkInvariant(t, p, uint64((testRows+63)/64))
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
}

// extremeQuery is a MIN or MAX plan for the zone-walk tests (or a SUM,
// which has no oracle here, to compare a whole pass against).
type extremeQuery struct {
	agg   string // "min", "max" or "sum"
	col   string
	preds []colstore.Pred
}

// body is q's /query body.
func (q extremeQuery) body(explain bool) map[string]any {
	where := make([]map[string]any, len(q.preds))
	for i, p := range q.preds {
		where[i] = map[string]any{"column": p.Column, "op": p.Op.String(), "value": p.Value}
	}
	return map[string]any{"dataset": "demo", "op": "aggregate", "agg": q.agg, "column": q.col, "where": where, "explain": explain}
}

// oracle answers q row by row over cols (columnValues).
func (q extremeQuery) oracle(cols map[string][]uint64) uint64 {
	var best uint64
	found := false
rows:
	for row, v := range cols[q.col] {
		for _, p := range q.preds {
			if !p.Op.Cmp().Eval(cols[p.Column][row], p.Value) {
				continue rows
			}
		}
		if !found || q.agg == "max" && v > best || q.agg == "min" && v < best {
			best, found = v, true
		}
	}
	return best
}

// columnValues reads every column of ds's table row by row.
func columnValues(ds *Dataset) map[string][]uint64 {
	cols := map[string][]uint64{}
	for _, name := range ds.Table.Columns() {
		c, _ := ds.Table.Column(name)
		v := c.Array().View(0)
		vals := make([]uint64, ds.Rows)
		for i := range vals {
			vals[i] = v.Get(uint64(i))
		}
		cols[name] = vals
	}
	return cols
}

// serveExplain sends body through the handler and decodes the reply.
func serveExplain(t *testing.T, handler http.Handler, body map[string]any) map[string]json.RawMessage {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.NewDecoder(serveQuery(t, handler, string(data)).Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestExplainZoneWalk pins what EXPLAIN shows of the zone walk on the
// served 4 Mi-row shape. scan_unique's MAX(id) template visits one wave
// of one super zone — id is the row number, so the last super zone holds
// the answer and no other can beat it — in one loop of at most four
// morsels, every column scanning at most two super zones' chunks and
// accounting the rest as pruned. MAX(amount) WHERE amount <= t, whose
// clamped bounds all tie at t, degrades to one whole pass: no more chunks
// scanned than the same predicate's SUM, a full pass, and at most
// ceil(log2(supers)) + 1 loops. Every answer matches the per-row oracle.
func TestExplainZoneWalk(t *testing.T) {
	srv := newScanUniqueServer(t, 0)
	handler := srv.Handler()
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	cols := columnValues(ds)
	chunks := (ds.Rows + 63) / 64
	supers := (chunks + encoding.ZoneFanout - 1) / encoding.ZoneFanout
	maxLoops := uint64(bits.Len64(supers-1)) + 1
	explain := func(q extremeQuery) *obs.QueryProfile {
		env := serveExplain(t, handler, q.body(true))
		if q.agg != "sum" {
			if got, want := resultField[uint64](t, env, "value"), q.oracle(cols); got != want {
				t.Errorf("%v = %d, want %d", q, got, want)
			}
		}
		p := profileOf(t, env)
		checkChunkInvariant(t, p, chunks)
		return p
	}
	for _, thr := range []uint64{thresholdLo, thresholdLo + thresholdSpan/2, thresholdLo + thresholdSpan - 1} {
		for _, k := range []uint64{1, 8, 15} {
			q := extremeQuery{"max", "id", []colstore.Pred{
				{Column: "amount", Op: colstore.Le, Value: thr}, {Column: "region", Op: colstore.Lt, Value: k},
			}}
			p := explain(q)
			if p.Loops != 1 || p.MorselsClaimed == 0 || p.MorselsClaimed > 4 {
				t.Errorf("%v: loops=%d morsels_claimed=%d, want one loop of at most 4", q, p.Loops, p.MorselsClaimed)
			}
			for _, c := range p.Columns {
				if c.ChunksScanned > 2*encoding.ZoneFanout {
					t.Errorf("%v: column %s (%s) scanned %d chunks, more than two super zones", q, c.Column, c.Role, c.ChunksScanned)
				}
			}
		}

		pred := []colstore.Pred{{Column: "amount", Op: colstore.Le, Value: thr}}
		full := map[string]uint64{}
		for _, c := range explain(extremeQuery{"sum", "amount", pred}).Columns {
			full[c.Column+"/"+c.Role] = c.ChunksScanned
		}
		q := extremeQuery{"max", "amount", pred}
		p := explain(q)
		if p.Loops == 0 || p.Loops > maxLoops {
			t.Errorf("%v: %d loops, want 1 to %d", q, p.Loops, maxLoops)
		}
		for _, c := range p.Columns {
			if whole, ok := full[c.Column+"/"+c.Role]; !ok || c.ChunksScanned > whole {
				t.Errorf("%v: column %s (%s) scanned %d chunks, a full pass %d", q, c.Column, c.Role, c.ChunksScanned, whole)
			}
		}
	}
}

// TestZoneWalkUnderSwapAndReencode races early-stopped MIN/MAX queries against
// live re-encoding of their target and predicate columns through every
// codec and against config swaps that turn the result cache on and off:
// every answer must equal the per-row oracle's. Run with -race.
func TestZoneWalkUnderSwapAndReencode(t *testing.T) {
	srv, ts := newTestServer(t, flightConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	cols := columnValues(ds)
	queries := []extremeQuery{
		{"max", "id", []colstore.Pred{{Column: "amount", Op: colstore.Le, Value: 30000}, {Column: "region", Op: colstore.Lt, Value: 3}}},
		{"min", "id", []colstore.Pred{{Column: "flag", Op: colstore.Eq, Value: 1}}},
		{"max", "id", nil},
		{"min", "amount", nil},
		{"max", "amount", []colstore.Pred{{Column: "amount", Op: colstore.Le, Value: 30000}}},
		{"min", "amount", []colstore.Pred{{Column: "amount", Op: colstore.Ge, Value: 30000}, {Column: "region", Op: colstore.Eq, Value: 3}}},
		{"max", "amount", []colstore.Pred{{Column: "region", Op: colstore.Lt, Value: 2}}},
	}
	want := make([]uint64, len(queries))
	for i, q := range queries {
		want[i] = q.oracle(cols)
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(2)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := flightConfig()
			cfg.CacheEntries = []int{0, 64}[i%2]
			if err := srv.apply(controlRequest{Config: &cfg}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, col := range []string{"id", "amount", "region"} {
				if _, err := ds.Table.ReencodeColumn(col, encoding.Kinds[i%len(encoding.Kinds)], 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	const clients, rounds = 4, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					code, env, err := post(ts, q.body(r%2 == 1))
					if err != nil {
						t.Error(err)
						return
					}
					if code != http.StatusOK {
						t.Errorf("%v: status %d: %s", q, code, env["error"])
						continue
					}
					if got := resultField[uint64](t, env, "value"); got != want[i] {
						t.Errorf("%v under chaos = %d, want %d", q, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
}

// fetchProfile GETs /debug/query/<id>.
func fetchProfile(t *testing.T, ts *httptest.Server, id uint64) *obs.QueryProfile {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/debug/query/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/query/%d = %d", id, resp.StatusCode)
	}
	var p obs.QueryProfile
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// fetchSlowlogSnapshot GETs /debug/slowlog.
func fetchSlowlogSnapshot(t *testing.T, ts *httptest.Server) obs.SlowLogSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.SlowLogSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// fetchStats GETs /stats.
func fetchStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}
