// End-to-end tests for query profiling: "explain": true on both table
// ops, the chunk-accounting invariant, agreement between profile fields
// and the /stats counters (cache, shared scan, admission), the
// /debug/slowlog and /debug/query/<id> surfaces, and the -race exercise
// of profiled queries against config swaps and live re-encoding.
package queryd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"smartarrays/internal/colstore"
	"smartarrays/internal/encoding"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd/plan"
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
// aggregate with cache and sharing off: the profile must name every
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
	if p.Cache != obs.CacheOff && p.Cache != obs.CacheBypass {
		t.Errorf("cache = %q with caching disabled", p.Cache)
	}
	if p.Shared == nil || p.Shared.Mode != obs.SharedOff {
		t.Errorf("shared = %+v, want mode off (coordinator disabled)", p.Shared)
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

	// An unpredicated min resolves from the zone index root: all chunks
	// pruned, nothing decoded — the invariant still holds.
	status, env = postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "min", "column": "amount", "explain": true,
	})
	if status != http.StatusOK {
		t.Fatalf("min status %d", status)
	}
	checkChunkInvariant(t, profileOf(t, env), chunks)
}

// TestExplainGroupByProfile is the group-by half of the acceptance
// check: three roles (predicate, key, target), same invariants.
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

// TestExplainParityBypassedVsEnrolled runs the same plans through the
// independent path (execute) and through the shared-scan coordinator
// (submit) and requires the same EXPLAIN column report from both: same
// columns, roles and codecs in the same order — predicates in canonical
// signature order, whatever order the caller wrote them in — and the
// chunk invariant on each. Both paths are one ScanState over the whole
// table, so any difference would be an accounting fork.
func TestExplainParityBypassedVsEnrolled(t *testing.T) {
	srv, _ := newTestServer(t, sharedConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	// Written in non-canonical order: "region…" sorts after "flag…".
	preds := []colstore.Pred{
		{Column: "region", Op: colstore.Lt, Value: 8},
		{Column: "flag", Op: colstore.Eq, Value: 1},
	}
	plans := []*plan.Plan{
		{Dataset: "demo", Op: plan.OpAggregate, Agg: colstore.Sum, Column: "amount", Preds: preds},
		{Dataset: "demo", Op: plan.OpAggregate, Agg: colstore.Count, Column: "amount", Preds: preds[:1]},
		{Dataset: "demo", Op: plan.OpGroupBy, Agg: colstore.Max, Column: "amount", Key: "region", Preds: preds},
	}
	wantOrder := [][]string{
		{"flag/predicate", "region/predicate", "amount/target"},
		{"region/predicate"},
		{"flag/predicate", "region/predicate", "region/key", "amount/target"},
	}
	chunks := uint64((testRows + 63) / 64)
	for i, p := range plans {
		bypassed := obs.NewQueryProfile(1)
		direct, err := execute(obs.ContextWithProfile(context.Background(), bypassed), srv.rt, ds, p)
		if err != nil {
			t.Fatal(err)
		}
		enrolled := obs.NewQueryProfile(2)
		res, err := srv.shared.scanner(ds.Table, srv.rt).submit(planScanQuery(p), planKey(p), 0, 4, enrolled)
		if err != nil {
			t.Fatal(err)
		}
		if shared := wireScanResult(p, res); !reflect.DeepEqual(direct, shared) {
			t.Errorf("plan %d: bypassed answer %+v, enrolled %+v", i, direct, shared)
		}
		var order []string
		for _, c := range bypassed.Columns {
			order = append(order, c.Column+"/"+c.Role)
		}
		if !reflect.DeepEqual(order, wantOrder[i]) {
			t.Errorf("plan %d: bypassed columns %v, want %v", i, order, wantOrder[i])
		}
		if len(enrolled.Columns) != len(bypassed.Columns) {
			t.Fatalf("plan %d: enrolled reports %d columns, bypassed %d", i, len(enrolled.Columns), len(bypassed.Columns))
		}
		for j, b := range bypassed.Columns {
			e := enrolled.Columns[j]
			if e.Column != b.Column || e.Role != b.Role || e.Codec != b.Codec || e.Chunks != b.Chunks {
				t.Errorf("plan %d column %d: enrolled %+v, bypassed %+v", i, j, e, b)
			}
		}
		checkChunkInvariant(t, bypassed, chunks)
		checkChunkInvariant(t, enrolled, chunks)
	}
}

// TestProfileCacheAgreement samples every query and checks the profile
// cache outcomes against the /stats cache counters: one miss then one
// hit, with explain bypassing both lookup and fill.
func TestProfileCacheAgreement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 64
	cfg.ProfileSample = 1
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

	// Sampled (non-explain) profiles are retained, not inlined: fetch
	// them by ID and check the recorded outcomes.
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

// TestProfileSharedAgreement fires concurrent identical explain queries
// through the shared-scan coordinator and reconciles the per-profile
// enrollment modes with the coordinator's /stats counters — every query
// took exactly one path, and both sides counted it. The mate count each
// profile carries must explain its path: this un-prunable plan rides
// exactly when the decision counted a same-signature mate, so the
// profiles with mates are the queries /stats counts as enrolled or
// coalesced, and the ones without are its bypasses.
func TestProfileSharedAgreement(t *testing.T) {
	srv, ts := newSharedTestServer(t, sharedConfig())
	body := sharedTestBodies()[0]
	body["explain"] = true

	const clients, rounds = 8, 3
	var wg sync.WaitGroup
	var enrolled, coalesced, bypassed, missing, withMates atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				status, env := postQuery(t, ts, body)
				if status != http.StatusOK {
					t.Errorf("status %d", status)
					continue
				}
				p := profileOf(t, env)
				if p.Shared == nil {
					missing.Add(1)
					continue
				}
				if p.Shared.Mates > 0 {
					withMates.Add(1)
				}
				switch p.Shared.Mode {
				case obs.SharedEnrolled:
					enrolled.Add(1)
					if p.Shared.SegmentsFolded == 0 || p.Shared.WraparoundNs == 0 {
						t.Errorf("enrolled profile without wraparound accounting: %+v", p.Shared)
					}
				case obs.SharedCoalesced:
					coalesced.Add(1)
				case obs.SharedBypassed:
					bypassed.Add(1)
				default:
					t.Errorf("unexpected shared mode %q with coordinator on", p.Shared.Mode)
				}
			}
		}()
	}
	wg.Wait()
	if missing.Load() != 0 {
		t.Fatalf("%d table-op profiles had no shared section", missing.Load())
	}
	stats := srv.SharedStats()
	if stats.Enrolled != enrolled.Load() || stats.Coalesced != coalesced.Load() || stats.Bypassed != bypassed.Load() {
		t.Errorf("profiles saw enrolled/coalesced/bypassed %d/%d/%d, /stats counted %d/%d/%d",
			enrolled.Load(), coalesced.Load(), bypassed.Load(),
			stats.Enrolled, stats.Coalesced, stats.Bypassed)
	}
	if total := enrolled.Load() + coalesced.Load() + bypassed.Load(); total != clients*rounds {
		t.Errorf("modes sum to %d, want %d", total, clients*rounds)
	}
	if withMates.Load() != stats.Enrolled+stats.Coalesced {
		t.Errorf("%d profiles counted a mate, /stats has %d enrolled + %d coalesced (bypassed %d)",
			withMates.Load(), stats.Enrolled, stats.Coalesced, stats.Bypassed)
	}
}

// TestShedProfileAgreement saturates admission with every query sampled:
// shed queries must emit minimal 429 profiles, and the slow-query log
// and per-tenant error series must agree with the admission counters.
func TestShedProfileAgreement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 0
	cfg.ProfileSample = 1
	_, ts := newTestServer(t, cfg)

	var ok, rejected atomic.Uint64
	for round := 0; round < 10 && (ok.Load() == 0 || rejected.Load() == 0); round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, _ := postQuery(t, ts, map[string]any{
					"dataset": "demo", "op": "pagerank", "iters": 30, "tenant": "acme",
				})
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				}
			}()
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

	// Every query was sampled, so the slowlog's recent ring holds one
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
// queries hammer both table ops while the control plane toggles
// profiling/sharing and the scanned columns re-encode live. Profiles
// must stay well-formed and the chunk invariant must hold throughout.
func TestProfilesUnderSwapAndReencode(t *testing.T) {
	srv, ts := newTestServer(t, sharedConfig())
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
			cfg := sharedConfig()
			cfg.ProfileSample = []int{0, 1, 16}[i%3]
			cfg.SharedScan = i%2 == 0
			cfg.SlowQueryMS = int64(1 + i%100)
			if err := srv.SwapConfig(cfg); err != nil {
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
				coalesced := p.Shared != nil && p.Shared.Mode == obs.SharedCoalesced
				if !coalesced && len(p.Columns) == 0 {
					t.Errorf("non-coalesced profile lost its columns: %+v", p)
				}
				checkChunkInvariant(t, p, uint64((testRows+63)/64))
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
