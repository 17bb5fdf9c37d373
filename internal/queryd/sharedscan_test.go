// Shared-scan coordinator tests: served answers bit-identical to direct
// library calls while queries coalesce, the ride-or-bypass decision on
// what is really shared (distinct signatures bypass, equal signatures
// ride, identical plans coalesce, resolvable predicates bypass), a
// panicking pass answered with 500s by a server that lives on, and the
// -race exercise of batching against config swaps and live re-encoding.
package queryd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartarrays/internal/colstore"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// sharedConfig enables the coordinator with a deep enough queue that the
// hammer tests never shed.
func sharedConfig() Config {
	cfg := DefaultConfig()
	cfg.SharedScan = true
	cfg.MaxQueue = 1024
	return cfg
}

// newSharedTestServer builds a table-only server big enough that scans
// take long enough for concurrent clients' queries to overlap on the ring
// — and therefore a batch to form; on the tiny fixture every query
// finishes before the next arrives and the estimate correctly bypasses.
func newSharedTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	rt := rts.New(machine.UMA(4))
	rt.SetRecorder(rec)
	srv, err := NewServer(rt, cfg, []DatasetSpec{
		{Name: "demo", Rows: 200000, Seed: 7},
	}, rec, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// sharedTestBodies is the duplicate-heavy predicated mix every shared
// test drives: un-prunable amount/region/flag predicates, so enrollment
// wins whenever at least two queries batch.
func sharedTestBodies() []map[string]any {
	return []map[string]any{
		{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
			"where": []map[string]any{{"column": "region", "op": "<", "value": 8}}},
		{"dataset": "demo", "op": "aggregate", "agg": "count", "column": "amount",
			"where": []map[string]any{{"column": "flag", "op": "=", "value": 1}}},
		{"dataset": "demo", "op": "aggregate", "agg": "max", "column": "amount",
			"where": []map[string]any{{"column": "region", "op": ">=", "value": 4}}},
		{"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount",
			"where": []map[string]any{{"column": "flag", "op": "=", "value": 1}}},
	}
}

// directAnswers computes the library-call reference for each body.
func directAnswers(t *testing.T, srv *Server) []any {
	t.Helper()
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ds.Table.Aggregate(colstore.Sum, "amount", colstore.Pred{Column: "region", Op: colstore.Lt, Value: 8})
	if err != nil {
		t.Fatal(err)
	}
	count, err := ds.Table.Aggregate(colstore.Count, "amount", colstore.Pred{Column: "flag", Op: colstore.Eq, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	max, err := ds.Table.Aggregate(colstore.Max, "amount", colstore.Pred{Column: "region", Op: colstore.Ge, Value: 4})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := ds.Table.GroupBy("region", colstore.Sum, "amount", colstore.Pred{Column: "flag", Op: colstore.Eq, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []any{sum, count, max, groups}
}

// checkServedAnswer asserts one 200 envelope matches its reference.
func checkServedAnswer(t *testing.T, env map[string]json.RawMessage, want any, ctx string) {
	t.Helper()
	switch ref := want.(type) {
	case uint64:
		if got := resultField[uint64](t, env, "value"); got != ref {
			t.Errorf("%s: served %d, direct %d", ctx, got, ref)
		}
	case []colstore.GroupRow:
		var res struct {
			Groups []struct {
				Key   uint64 `json:"key"`
				Value uint64 `json:"value"`
			} `json:"groups"`
		}
		if err := json.Unmarshal(env["result"], &res); err != nil {
			t.Fatalf("%s: decoding groups: %v", ctx, err)
		}
		if len(res.Groups) != len(ref) {
			t.Fatalf("%s: %d groups, direct %d", ctx, len(res.Groups), len(ref))
		}
		for i, g := range res.Groups {
			if g.Key != ref[i].Key || g.Value != ref[i].Value {
				t.Errorf("%s group %d: served (%d,%d), direct (%d,%d)",
					ctx, i, g.Key, g.Value, ref[i].Key, ref[i].Value)
			}
		}
	default:
		t.Fatalf("%s: unhandled reference type %T", ctx, want)
	}
}

// TestSharedScanMatchesIndependent hammers the coordinator with
// duplicate-heavy concurrent aggregates and asserts every served answer
// is bit-identical to the direct library call, queries actually enrolled
// and coalesced, and multi-query batches formed.
func TestSharedScanMatchesIndependent(t *testing.T) {
	srv, ts := newSharedTestServer(t, sharedConfig())
	bodies := sharedTestBodies()
	want := directAnswers(t, srv)

	// Several rounds per client: the arrival window and pacing converge
	// over tens of milliseconds of sustained flow, so a single burst can
	// drain before any batch forms.
	const clients, rounds = 24, 3
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds*len(bodies))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		// Stagger each client's starting body so distinct plans overlap
		// too — identical ones only exercise coalescing.
		go func(start int) {
			defer wg.Done()
			for k := 0; k < rounds*len(bodies); k++ {
				i := (start + k) % len(bodies)
				code, env := postQuery(t, ts, bodies[i])
				if code != http.StatusOK {
					errs <- "non-200 response"
					continue
				}
				checkServedAnswer(t, env, want[i], bodies[i]["op"].(string))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	stats := srv.SharedStats()
	if stats.Enrolled == 0 {
		t.Error("no queries enrolled in shared scans")
	}
	if stats.SharedBatches == 0 {
		t.Error("no multi-query batches formed")
	}
	if stats.Coalesced == 0 {
		t.Error("no duplicate plans coalesced")
	}
	if stats.SegmentPasses == 0 {
		t.Error("no segment passes recorded")
	}
}

// TestSharedScanAdaptiveBypass scores the enrollment decision directly:
// un-prunable uniform predicates must enroll once a same-signature mate
// is there to split the walk with and never without one, while a
// selective range on the sorted id column (which the zone index resolves
// almost everywhere) must bypass at any mate count — there is next to no
// walk left to split.
func TestSharedScanAdaptiveBypass(t *testing.T) {
	srv, _ := newTestServer(t, sharedConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}

	uniform := &plan.Plan{Op: plan.OpAggregate, Agg: colstore.Sum, Column: "amount",
		Preds: []colstore.Pred{{Column: "region", Op: colstore.Lt, Value: 8}}}
	for _, mates := range []int{1, 7} {
		if score := decideEnroll(ds.Table, uniform, mates); !score.Enroll {
			t.Errorf("uniform predicate should enroll with %d mates: %+v", mates, score)
		}
	}
	if score := decideEnroll(ds.Table, uniform, 0); score.Enroll {
		t.Errorf("a query without mates must not enroll (no one to share with): %+v", score)
	}

	selective := &plan.Plan{Op: plan.OpAggregate, Agg: colstore.Sum, Column: "amount",
		Preds: []colstore.Pred{{Column: "id", Op: colstore.Lt, Value: 100}}}
	for _, mates := range []int{1, 7, 63} {
		if score := decideEnroll(ds.Table, selective, mates); score.Enroll {
			t.Errorf("selective zone-resolved predicate should bypass with %d mates: %+v", mates, score)
		}
	}

	unpredicated := &plan.Plan{Op: plan.OpAggregate, Agg: colstore.Sum, Column: "amount"}
	if score := decideEnroll(ds.Table, unpredicated, 7); score.Enroll {
		t.Error("unpredicated plans must bypass (no mask walk to share)")
	}
}

// TestArrivalWindowEstimate pins the forward-looking half of the mate
// estimate: near-simultaneous arrivals of one predicate signature count
// each other even when none of them is on the ring, arrivals of another
// signature never count (they would share nothing), and arrivals older
// than one wraparound fall out.
func TestArrivalWindowEstimate(t *testing.T) {
	sc := &tableScanner{}
	base := time.Now()
	if got := sc.noteArrival("a", base); got != 1 {
		t.Fatalf("first arrival counted %d", got)
	}
	if got := sc.noteArrival("b", base.Add(500*time.Microsecond)); got != 1 {
		t.Fatalf("arrival of another signature counted %d", got)
	}
	if got := sc.noteArrival("a", base.Add(time.Millisecond)); got != 2 {
		t.Fatalf("arrival inside the window counted %d", got)
	}
	// mates is the same count without the query itself (nothing is
	// enrolled on this scanner, so the population half is zero).
	if got := sc.mates("b", base.Add(time.Millisecond)); got != 1 {
		t.Fatalf("second arrival of a signature has %d mates, want 1", got)
	}
	if got := sc.mates("c", base.Add(time.Millisecond)); got != 0 {
		t.Fatalf("a signature nobody else asked about has %d mates", got)
	}
	// Default window is arrivalWindowMin (no passes measured yet): a
	// later arrival sees neither.
	if got := sc.noteArrival("a", base.Add(time.Second)); got != 1 {
		t.Fatalf("stale arrivals survived the window: %d", got)
	}

	// A measured wraparound widens the window up to the cap.
	sc.wrapNS.Store(int64(50 * time.Millisecond))
	far := base.Add(2 * time.Second)
	sc.noteArrival("a", far)
	if got := sc.noteArrival("a", far.Add(40*time.Millisecond)); got != 2 {
		t.Fatalf("arrival inside the measured wraparound counted %d", got)
	}
	sc.wrapNS.Store(int64(time.Hour))
	if got := sc.noteArrival("a", far.Add(arrivalWindowMax+400*time.Millisecond)); got != 1 {
		t.Fatalf("window cap not enforced: %d", got)
	}
}

// driveClients runs closed-loop clients against ts: client c's round r
// sends request(c, r) and checks the served answer against the direct
// library answer returned with it. Clients stop once done(stats) holds
// (checked between rounds, after at least minRounds) or at maxRounds.
func driveClients(t *testing.T, srv *Server, ts *httptest.Server, clients, minRounds, maxRounds int,
	request func(c, r int) (map[string]any, any), done func(SharedScanStats) bool) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < maxRounds && (r < minRounds || !done(srv.SharedStats())); r++ {
				body, want := request(c, r)
				code, env := postQuery(t, ts, body)
				if code != http.StatusOK {
					t.Errorf("client %d round %d: status %d", c, r, code)
					continue
				}
				checkServedAnswer(t, env, want, body["op"].(string))
			}
		}(c)
	}
	wg.Wait()
}

// TestSharedScanDistinctSignaturesBypass is the scan_unique shape: two
// concurrent clients sending the benchmark's four plan templates, every
// request with a threshold of its own. No two queries ever have the same
// predicate signature, so a pass would share nothing between them — every
// one must bypass the ring (Enrolled stays 0 whatever the concurrency)
// and answer exactly as the direct Table call does.
func TestSharedScanDistinctSignaturesBypass(t *testing.T) {
	srv, ts := newSharedTestServer(t, sharedConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 2, 12
	request := func(c, r int) (map[string]any, any) {
		k := uint64(c*rounds + r)
		thr := 1<<13 + k*397
		where := func(op string, extra ...map[string]any) []map[string]any {
			return append([]map[string]any{{"column": "amount", "op": op, "value": thr}}, extra...)
		}
		direct := func(v any, err error) any {
			if err != nil {
				t.Error(err)
			}
			return v
		}
		amount := func(op colstore.CmpOp) colstore.Pred { return colstore.Pred{Column: "amount", Op: op, Value: thr} }
		switch r % 4 {
		case 0:
			return map[string]any{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount", "where": where("<")},
				direct(ds.Table.Aggregate(colstore.Sum, "amount", amount(colstore.Lt)))
		case 1:
			return map[string]any{"dataset": "demo", "op": "aggregate", "agg": "count", "column": "id",
					"where": where(">=", map[string]any{"column": "flag", "op": "=", "value": 1})},
				direct(ds.Table.Aggregate(colstore.Count, "id", amount(colstore.Ge), colstore.Pred{Column: "flag", Op: colstore.Eq, Value: 1}))
		case 2:
			return map[string]any{"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount", "where": where(">")},
				direct(ds.Table.GroupBy("region", colstore.Sum, "amount", amount(colstore.Gt)))
		default:
			return map[string]any{"dataset": "demo", "op": "aggregate", "agg": "max", "column": "id",
					"where": where("<=", map[string]any{"column": "region", "op": "<", "value": 1 + k%15})},
				direct(ds.Table.Aggregate(colstore.Max, "id", amount(colstore.Le), colstore.Pred{Column: "region", Op: colstore.Lt, Value: 1 + k%15}))
		}
	}
	driveClients(t, srv, ts, clients, rounds, rounds, request, func(SharedScanStats) bool { return false })

	stats := srv.SharedStats()
	if stats.Enrolled != 0 || stats.Coalesced != 0 || stats.SegmentPasses != 0 {
		t.Errorf("distinct signatures rode the ring: %+v", stats)
	}
	if stats.Bypassed != clients*rounds {
		t.Errorf("bypassed %d of %d distinct-signature queries", stats.Bypassed, clients*rounds)
	}
}

// TestSharedScanSameSignatureRides sends one predicate set under five
// different aggregates, one per client: no two plans are identical (so
// nothing coalesces) but all have the same signature, so they are each
// other's mates — they must enroll and form multi-state batches, whose
// one mask build per batch every rider folds under.
func TestSharedScanSameSignatureRides(t *testing.T) {
	srv, ts := newSharedTestServer(t, sharedConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	pred := colstore.Pred{Column: "region", Op: colstore.Lt, Value: 8}
	where := []map[string]any{{"column": "region", "op": "<", "value": 8}}
	aggs := []struct {
		name string
		agg  colstore.Agg
	}{{"sum", colstore.Sum}, {"count", colstore.Count}, {"min", colstore.Min}, {"max", colstore.Max}}
	var bodies []map[string]any
	var want []any
	for _, a := range aggs {
		v, err := ds.Table.Aggregate(a.agg, "amount", pred)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, map[string]any{"dataset": "demo", "op": "aggregate", "agg": a.name, "column": "amount", "where": where})
		want = append(want, v)
	}
	groups, err := ds.Table.GroupBy("flag", colstore.Sum, "amount", pred)
	if err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, map[string]any{"dataset": "demo", "op": "groupby", "key": "flag", "agg": "sum", "column": "amount", "where": where})
	want = append(want, groups)

	driveClients(t, srv, ts, len(bodies), 8, 2000,
		func(c, _ int) (map[string]any, any) { return bodies[c], want[c] },
		func(st SharedScanStats) bool { return st.SharedBatches > 0 })

	stats := srv.SharedStats()
	if stats.Enrolled == 0 || stats.SharedBatches == 0 {
		t.Errorf("same-signature plans did not share passes: %+v", stats)
	}
	if stats.Coalesced != 0 {
		t.Errorf("%d plans coalesced though no two were identical", stats.Coalesced)
	}
}

// TestSharedScanIdenticalPlansCoalesce sends one plan from every client:
// whoever finds a twin on the ring piggybacks on its state outright.
func TestSharedScanIdenticalPlansCoalesce(t *testing.T) {
	srv, ts := newSharedTestServer(t, sharedConfig())
	body, want := sharedTestBodies()[0], directAnswers(t, srv)[0]
	driveClients(t, srv, ts, 6, 8, 2000,
		func(int, int) (map[string]any, any) { return body, want },
		func(st SharedScanStats) bool { return st.Coalesced > 0 })
	if stats := srv.SharedStats(); stats.Coalesced == 0 || stats.Enrolled == 0 {
		t.Errorf("identical plans did not coalesce: %+v", stats)
	}
}

// TestSharedScanPassPanic makes a segment pass panic in a kernel, on a
// chosen chunk: the ring of the served table is pointed at a copy whose
// target column is freed and whose predicate only matches from row
// panicRow on, so the first segments fold nothing and pass, and the
// masked fold of the chunk holding panicRow dereferences the freed
// array inside a worker's loop body. The runtime re-raises that on the
// loop's submitter — the driver goroutine. Every rider (attached,
// pending or coalesced) must get a 500, the process must live, and once
// the ring scans the real table again the next riders must get a fresh
// driver and correct answers.
func TestSharedScanPassPanic(t *testing.T) {
	srv, ts := newTestServer(t, sharedConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	const panicRow = testRows / 2
	broken, err := colstore.NewTable(srv.rt, testRows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(broken.Free)
	region, amount := make([]uint64, testRows), make([]uint64, testRows)
	for i := range region {
		amount[i] = uint64(i)
		if i < panicRow {
			region[i] = 15
		}
	}
	if _, err := broken.AddColumn("region", region, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	target, err := broken.AddColumn("amount", amount, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target.Array().Free()

	bodies := sharedTestBodies()
	bodies = []map[string]any{bodies[0], bodies[0], {"dataset": "demo", "op": "aggregate", "agg": "max", "column": "amount", "where": bodies[0]["where"]}}
	wantSum, err := ds.Table.Aggregate(colstore.Sum, "amount", colstore.Pred{Column: "region", Op: colstore.Lt, Value: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantMax, err := ds.Table.Aggregate(colstore.Max, "amount", colstore.Pred{Column: "region", Op: colstore.Lt, Value: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{wantSum, wantSum, wantMax}

	// The decision reads the served table; only the ride scans sc.tbl. A
	// noted arrival inside a wide window gives every query below a mate,
	// so all of them ride.
	sc := srv.shared.scanner(ds.Table, srv.rt)
	sig := colstore.PredSignature([]colstore.Pred{{Column: "region", Op: colstore.Lt, Value: 8}})
	sc.indepNS.Store(int64(arrivalWindowMax))
	// round fires the bodies concurrently and returns each one's status
	// and error text; 200s are checked against the direct answers.
	round := func() ([]int, []string) {
		sc.noteArrival(sig, time.Now())
		codes, errs := make([]int, len(bodies)), make([]string, len(bodies))
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, env := postQuery(t, ts, bodies[i])
				if codes[i], errs[i] = code, string(env["error"]); code == http.StatusOK {
					checkServedAnswer(t, env, want[i], "aggregate")
				}
			}(i)
		}
		wg.Wait()
		return codes, errs
	}

	sc.mu.Lock()
	sc.tbl = broken
	sc.mu.Unlock()
	codes, errs := round()
	for i, code := range codes {
		if code != http.StatusInternalServerError || !strings.Contains(errs[i], errPassPanicked.Error()) {
			t.Errorf("rider of a panicked pass got status %d (%s), want 500 naming the panic", code, errs[i])
		}
	}
	stats := srv.SharedStats()
	if stats.Enrolled+stats.Coalesced != uint64(len(bodies)) || stats.SegmentPasses == 0 {
		t.Errorf("want every query riding and the panic past the first segment: %+v", stats)
	}

	sc.mu.Lock()
	if sc.running || len(sc.active)+len(sc.pending) != 0 {
		t.Errorf("ring not idle after the panic: running=%v active=%d pending=%d", sc.running, len(sc.active), len(sc.pending))
	}
	sc.tbl = ds.Table
	sc.mu.Unlock()
	codes, errs = round()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("query after the panic got status %d (%s)", code, errs[i])
		}
	}
	if after := srv.SharedStats(); after.Enrolled+after.Coalesced != 2*uint64(len(bodies)) {
		t.Errorf("queries after the panic did not ride a fresh driver: %+v", after)
	}
}

// TestSharedScanBypassServed asserts a served selective query still
// answers correctly and lands in the bypass counter when sharing is on.
func TestSharedScanBypassServed(t *testing.T) {
	srv, ts := newTestServer(t, sharedConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Table.Aggregate(colstore.Sum, "amount", colstore.Pred{Column: "id", Op: colstore.Lt, Value: 100})
	if err != nil {
		t.Fatal(err)
	}
	code, env := postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
		"where": []map[string]any{{"column": "id", "op": "<", "value": 100}},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := resultField[uint64](t, env, "value"); got != want {
		t.Errorf("served %d, direct %d", got, want)
	}
	if srv.SharedStats().Bypassed == 0 {
		t.Error("selective query did not land in the bypass counter")
	}
}

// TestSharedScanUnderSwapAndReencode races coalescing queries against
// config swaps toggling SharedScan and live re-encoding of the scanned
// columns — answers must stay bit-identical throughout. Run with -race.
func TestSharedScanUnderSwapAndReencode(t *testing.T) {
	srv, ts := newSharedTestServer(t, sharedConfig())
	bodies := sharedTestBodies()
	want := directAnswers(t, srv)
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(2)
	go func() {
		defer chaos.Done()
		on := sharedConfig()
		off := sharedConfig()
		off.SharedScan = false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := on
			if i%2 == 1 {
				cfg = off
			}
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

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, body := range bodies {
					code, env := postQuery(t, ts, body)
					if code != http.StatusOK {
						t.Errorf("status %d under chaos", code)
						continue
					}
					checkServedAnswer(t, env, want[i], bodies[i]["op"].(string))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
}

// TestStatsExposesSharedScan asserts /stats carries the shared_scan
// counter block and the admission queue-wait histogram after traffic.
func TestStatsExposesSharedScan(t *testing.T) {
	_, ts := newTestServer(t, sharedConfig())
	for i := 0; i < 4; i++ {
		code, _ := postQuery(t, ts, sharedTestBodies()[0])
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		SharedScan  *SharedScanStats `json:"shared_scan"`
		QueueWaitMS *struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
		} `json:"queue_wait_ms"`
		ActiveLoops *int `json:"active_loops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.SharedScan == nil {
		t.Error("/stats missing shared_scan block")
	}
	if payload.QueueWaitMS == nil || payload.QueueWaitMS.Count == 0 {
		t.Error("/stats missing queue_wait_ms histogram after served queries")
	}
	if payload.ActiveLoops == nil {
		t.Error("/stats missing active_loops")
	}
}
