// Flight tests: identical plans in flight coalesce onto one execution and
// answer bit-identically to execute, distinct plans never coalesce,
// followers hold no admission slot, explain never coalesces, a kernel
// panic answers 500 to a query and to every follower of it while the
// server lives on, and the -race exercise of coalescing under every
// codec, live re-encoding and config swaps.
package queryd

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/colstore"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// flightConfig leaves the cache off, so an identical plan either executes
// or coalesces, with a queue deep enough that the hammer tests never shed.
func flightConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxQueue = 1024
	return cfg
}

// newFlightTestServer builds a table-only server big enough that scans
// take long enough for concurrent clients' identical queries to overlap.
func newFlightTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	rt := rts.New(machine.UMA(4))
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

// flightTestBodies is the predicated mix the flight tests send from many
// clients at once: both table ops, un-prunable predicates.
func flightTestBodies() []map[string]any {
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

// uniqueBody is request k of the scan_unique shape: its four plan
// templates, each with an amount threshold of its own, so no two k ever
// send the same plan.
func uniqueBody(k uint64) map[string]any {
	amount := func(op string, extra ...map[string]any) []map[string]any {
		return append([]map[string]any{{"column": "amount", "op": op, "value": 1<<13 + k*397}}, extra...)
	}
	switch k % 4 {
	case 0:
		return map[string]any{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount", "where": amount("<")}
	case 1:
		return map[string]any{"dataset": "demo", "op": "aggregate", "agg": "count", "column": "id",
			"where": amount(">=", map[string]any{"column": "flag", "op": "=", "value": 1})}
	case 2:
		return map[string]any{"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount", "where": amount(">")}
	default:
		return map[string]any{"dataset": "demo", "op": "aggregate", "agg": "max", "column": "id",
			"where": amount("<=", map[string]any{"column": "region", "op": "<", "value": 1 + k%15})}
	}
}

// executeJSON is the reference answer for body: execute's wire result on
// srv's dataset, marshaled as a reply carries it. Safe from any goroutine:
// a failure is reported with t.Error and returns "".
func executeJSON(t *testing.T, srv *Server, body map[string]any) string {
	t.Helper()
	out, err := func() ([]byte, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		p, err := plan.Parse(data)
		if err != nil {
			return nil, err
		}
		ds, err := srv.Dataset(p.Dataset)
		if err != nil {
			return nil, err
		}
		res, err := execute(srv.rt, ds, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}()
	if err != nil {
		t.Error(err)
	}
	return string(out)
}

// envFlag extracts a boolean field of a /query reply (absent means false —
// the cached and shared flags are omitempty).
func envFlag(t *testing.T, env map[string]json.RawMessage, field string) bool {
	t.Helper()
	raw, ok := env[field]
	if !ok {
		return false
	}
	var b bool
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Error(err)
	}
	return b
}

// checkReply asserts a 200 reply whose result is bit-identical to want,
// and returns its shared flag.
func checkReply(t *testing.T, code int, env map[string]json.RawMessage, want, ctx string) bool {
	t.Helper()
	if code != http.StatusOK {
		t.Errorf("%s: status %d: %s", ctx, code, env["error"])
		return false
	}
	if got := string(env["result"]); got != want {
		t.Errorf("%s: served %s, execute %s", ctx, got, want)
	}
	return envFlag(t, env, "shared")
}

// driveClients runs closed-loop clients against ts: client c's round r
// sends the body request(c, r) returns and checks the reply against the
// reference returned with it. Clients stop once done holds (checked
// between rounds, after at least minRounds) or at maxRounds. It returns
// the number of replies flagged shared.
func driveClients(t *testing.T, ts *httptest.Server, clients, minRounds, maxRounds int,
	request func(c, r int) (map[string]any, string), done func() bool) uint64 {
	t.Helper()
	var shared atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < maxRounds && (r < minRounds || !done()); r++ {
				body, want := request(c, r)
				code, env, err := post(ts, body)
				if err != nil {
					t.Error(err)
					return
				}
				if checkReply(t, code, env, want, fmt.Sprintf("client %d round %d", c, r)) {
					shared.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return shared.Load()
}

// TestSharedScanMatchesIndependent hammers the flight table under every
// codec: clients send the same plans, which coalesce, interleaved with
// plans of their own, which must not, and every reply must be
// bit-identical to execute on the same table. Every shared reply is one
// /stats coalesced count.
func TestSharedScanMatchesIndependent(t *testing.T) {
	srv, ts := newFlightTestServer(t, flightConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	bodies := flightTestBodies()
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = executeJSON(t, srv, b)
	}
	const clients = 8
	for _, kind := range encoding.Kinds {
		for _, col := range []string{"amount", "region", "flag"} {
			if _, err := ds.Table.ReencodeColumn(col, kind, 0); err != nil {
				t.Fatalf("reencode %s to %v: %v", col, kind, err)
			}
		}
		before := srv.cache.stats().Coalesced
		shared := driveClients(t, ts, clients, 2, 50, func(c, r int) (map[string]any, string) {
			if r%2 == 1 {
				body := uniqueBody(uint64(c*1000 + r))
				return body, executeJSON(t, srv, body)
			}
			i := (c + r/2) % len(bodies)
			return bodies[i], want[i]
		}, func() bool { return srv.cache.stats().Coalesced > before })
		if got := srv.cache.stats().Coalesced - before; got == 0 || got != shared {
			t.Errorf("%v: %d replies shared, /stats coalesced %d (want equal and nonzero)", kind, shared, got)
		}
	}
}

// TestSharedScanDistinctSignaturesBypass is the scan_unique shape: two
// concurrent clients, every request with a threshold of its own. No two
// queries are ever the same plan, so none may coalesce, and each must
// answer exactly as execute does.
func TestSharedScanDistinctSignaturesBypass(t *testing.T) {
	srv, ts := newFlightTestServer(t, flightConfig())
	const clients, rounds = 2, 12
	shared := driveClients(t, ts, clients, rounds, rounds, func(c, r int) (map[string]any, string) {
		body := uniqueBody(uint64(c*rounds + r))
		return body, executeJSON(t, srv, body)
	}, func() bool { return false })
	if st := srv.cache.stats(); shared != 0 || st.Coalesced != 0 {
		t.Errorf("distinct plans coalesced: %d shared replies, %+v", shared, st)
	}
}

// TestSharedScanIdenticalPlansCoalesce sends one plan from every client:
// whoever finds its twin executing waits for that answer. Followers never
// pass admission, so every query is either admitted or coalesced.
func TestSharedScanIdenticalPlansCoalesce(t *testing.T) {
	srv, ts := newFlightTestServer(t, flightConfig())
	body := flightTestBodies()[0]
	want := executeJSON(t, srv, body)
	var sent atomic.Uint64
	shared := driveClients(t, ts, 6, 8, 2000, func(int, int) (map[string]any, string) {
		sent.Add(1)
		return body, want
	}, func() bool { return srv.cache.stats().Coalesced > 0 })
	st := fetchStats(t, ts)
	if st.Cache.Coalesced == 0 || st.Cache.Coalesced != shared {
		t.Errorf("identical plans: %d shared replies, /stats coalesced %d (want equal and nonzero)", shared, st.Cache.Coalesced)
	}
	if st.Admission.Admitted+st.Cache.Coalesced != sent.Load() {
		t.Errorf("admitted %d + coalesced %d != %d sent", st.Admission.Admitted, st.Cache.Coalesced, sent.Load())
	}
}

// reply is one /query response collected from a client goroutine.
type reply struct {
	code int
	env  map[string]json.RawMessage
	err  error
}

// postAsync posts body from a goroutine of its own and returns the channel
// its reply will arrive on.
func postAsync(ts *httptest.Server, body map[string]any) <-chan reply {
	ch := make(chan reply, 1)
	go func() {
		code, env, err := post(ts, body)
		ch <- reply{code, env, err}
	}()
	return ch
}

// recv takes the reply from ch, failing the test if it is an error or
// none arrives within ten seconds.
func recv(t *testing.T, ch <-chan reply) reply {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a reply")
		return reply{}
	}
}

// holdWorkers parks every worker of rt in a batch of a loop that waits on
// the returned release, so the next query's loop is admitted but cannot
// run: its query is held in execution, its flight registered.
func holdWorkers(t *testing.T, rt *rts.Runtime) (release func()) {
	t.Helper()
	n := len(rt.Workers())
	var parked sync.WaitGroup
	parked.Add(n)
	gate, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rt.ParallelFor(0, uint64(n), 1, func(*rts.Worker, uint64, uint64) {
			parked.Done()
			<-gate
		})
	}()
	parked.Wait()
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			<-done
		})
	}
	t.Cleanup(release)
	return release
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// flightsOpen is the number of plans executing as flights.
func flightsOpen(srv *Server) int {
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	return len(srv.cache.flights)
}

// TestFollowersHoldNoSlot holds a leader in execution on a server with one
// slot and no queue: identical arrivals wait for it and succeed, while a
// distinct plan finds no slot and is shed — and so is an explain of the
// very plan in flight, because explain never coalesces.
func TestFollowersHoldNoSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight, cfg.MaxQueue = 1, 0
	srv, ts := newTestServer(t, cfg)
	body := flightTestBodies()[0]
	want := executeJSON(t, srv, body)
	explain := maps.Clone(body)
	explain["explain"] = true
	distinct := maps.Clone(body)
	distinct["where"] = []map[string]any{{"column": "region", "op": "<", "value": 9}}

	release := holdWorkers(t, srv.rt)
	const followers = 3
	replies := []<-chan reply{postAsync(ts, body)}
	waitFor(t, "the leader's flight", func() bool { return flightsOpen(srv) == 1 })
	for i := 0; i < followers; i++ {
		replies = append(replies, postAsync(ts, body))
	}
	waitFor(t, "the followers", func() bool { return srv.cache.stats().Coalesced == followers })

	if st := srv.adm.Stats(); st.InFlight != 1 {
		t.Errorf("in flight = %d with one leader and %d followers, want 1", st.InFlight, followers)
	}
	if r := recv(t, postAsync(ts, distinct)); r.code != http.StatusTooManyRequests {
		t.Errorf("distinct plan while the slot is held: status %d (%s), want 429", r.code, r.env["error"])
	}
	if r := recv(t, postAsync(ts, explain)); r.code != http.StatusTooManyRequests {
		t.Errorf("explain of the plan in flight: status %d (%s), want 429", r.code, r.env["error"])
	}

	release()
	shared := 0
	for _, ch := range replies {
		r := recv(t, ch)
		if checkReply(t, r.code, r.env, want, "leader or follower") {
			shared++
		}
	}
	if shared != followers {
		t.Errorf("%d replies shared, want the %d followers'", shared, followers)
	}

	// With the slot free the explain runs on its own and says so.
	code, env := postQuery(t, ts, explain)
	if checkReply(t, code, env, want, "explain") {
		t.Error("explain reply flagged shared")
	}
	if p := profileOf(t, env); p.Cache != obs.CacheBypass {
		t.Errorf("explain profile cache = %q, want bypass", p.Cache)
	}
	if got := srv.cache.stats().Coalesced; got != followers {
		t.Errorf("coalesced = %d, want %d", got, followers)
	}
}

// brokenTable builds a rows-row table whose target column amount is freed
// and whose region < 8 predicate matches only from the middle row on: an
// aggregate of amount under it folds nothing in the first half, then
// dereferences the freed array inside a worker's loop body, which the
// runtime re-raises on the goroutine that submitted the loop.
func brokenTable(t *testing.T, rt *rts.Runtime, rows uint64) *colstore.Table {
	t.Helper()
	tbl, err := colstore.NewTable(rt, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Free)
	region, amount := make([]uint64, rows), make([]uint64, rows)
	for i := range region {
		amount[i] = uint64(i)
		if uint64(i) < rows/2 {
			region[i] = 15
		}
	}
	if _, err := tbl.AddColumn("region", region, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	target, err := tbl.AddColumn("amount", amount, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target.Array().Free()
	return tbl
}

// installDataset puts ds into srv's catalog under its name, as the control
// plane would: the snapshot version moves on, so nothing cached or in
// flight for the previous dataset is reachable.
func installDataset(srv *Server, ds *Dataset) {
	srv.ctlMu.Lock()
	defer srv.ctlMu.Unlock()
	old := srv.snap.Load()
	datasets := maps.Clone(old.datasets)
	datasets[ds.Name] = ds
	srv.snap.Store(&snapshot{cfg: old.cfg, datasets: datasets, version: old.version + 1})
}

// TestSharedScanPassPanic makes plan execution panic in a kernel, on a
// table whose target column is freed (brokenTable), in the three ways a
// query executes: with explain, plain, and as a leader with followers
// waiting on its flight. Every one of them must get a 500 naming the
// panic, counted in errors_5xx, with a profile whose status is "error";
// and once the dataset is whole again the identical plan must succeed.
func TestSharedScanPassPanic(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	demo, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	installDataset(srv, &Dataset{Name: "demo", Table: brokenTable(t, srv.rt, testRows)})
	body := flightTestBodies()[0]
	explain := maps.Clone(body)
	explain["explain"] = true

	failed := 0
	expect500 := func(t *testing.T, r reply, ctx string) (cache string) {
		t.Helper()
		failed++
		if r.code != http.StatusInternalServerError || !strings.Contains(string(r.env["error"]), errExecPanicked.Error()) {
			t.Errorf("%s: status %d (%s), want 500 naming the panic", ctx, r.code, r.env["error"])
		}
		var qid uint64
		if err := json.Unmarshal(r.env["query_id"], &qid); err != nil {
			t.Fatalf("%s: query_id: %v", ctx, err)
		}
		p := fetchProfile(t, ts, qid)
		if p.Status != "error" || p.HTTPStatus != http.StatusInternalServerError {
			t.Errorf("%s: profile status %q/%d, want error/500", ctx, p.Status, p.HTTPStatus)
		}
		return p.Cache
	}
	t.Run("explain", func(t *testing.T) {
		code, env := postQuery(t, ts, explain)
		expect500(t, reply{code: code, env: env}, "explain")
	})
	t.Run("plain", func(t *testing.T) {
		code, env := postQuery(t, ts, body)
		expect500(t, reply{code: code, env: env}, "plain")
	})
	t.Run("leader with followers", func(t *testing.T) {
		release := holdWorkers(t, srv.rt)
		const followers = 3
		replies := []<-chan reply{postAsync(ts, body)}
		waitFor(t, "the leader's flight", func() bool { return flightsOpen(srv) == 1 })
		before := srv.cache.stats().Coalesced
		for i := 0; i < followers; i++ {
			replies = append(replies, postAsync(ts, body))
		}
		waitFor(t, "the followers", func() bool { return srv.cache.stats().Coalesced == before+followers })
		release()
		outcomes := map[string]int{}
		for _, ch := range replies {
			outcomes[expect500(t, recv(t, ch), "leader or follower")]++
		}
		if outcomes[obs.CacheCoalesced] != followers || outcomes[obs.CacheOff] != 1 {
			t.Errorf("profile cache outcomes %v, want %d coalesced and 1 off", outcomes, followers)
		}
	})
	if got := fetchStats(t, ts).Errors5xx; got != uint64(failed) {
		t.Errorf("errors_5xx = %d, want %d", got, failed)
	}

	installDataset(srv, demo)
	want := executeJSON(t, srv, body)
	for _, b := range []map[string]any{body, explain} {
		code, env := postQuery(t, ts, b)
		checkReply(t, code, env, want, "after the panic")
	}
}

// TestSharedScanUnderSwapAndReencode races coalescing against config
// swaps that turn the cache on and off and resize admission, and against
// live re-encoding of the scanned columns through every codec, with
// identical and distinct plans from every client: each reply must stay
// bit-identical to execute's answer. Run with -race.
func TestSharedScanUnderSwapAndReencode(t *testing.T) {
	srv, ts := newFlightTestServer(t, flightConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 8, 4
	bodies := flightTestBodies()
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = executeJSON(t, srv, b)
	}
	own := make([][]map[string]any, clients)
	ownWant := make([][]string, clients)
	for c := range own {
		for r := 0; r < rounds; r++ {
			body := uniqueBody(uint64(c*rounds + r))
			own[c] = append(own[c], body)
			ownWant[c] = append(ownWant[c], executeJSON(t, srv, body))
		}
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
			cfg.MaxInFlight = 2 + i%4
			if err := srv.apply(controlRequest{Config: &cfg}); err != nil {
				t.Error(err)
				return
			}
			// Leave flights time to form between swaps: each swap moves
			// every key on.
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
			for _, col := range []string{"amount", "region", "flag"} {
				if _, err := ds.Table.ReencodeColumn(col, encoding.Kinds[i%len(encoding.Kinds)], 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, body := range bodies {
					code, env, err := post(ts, body)
					if err != nil {
						t.Error(err)
						return
					}
					checkReply(t, code, env, want[i], "identical plan under chaos")
				}
				code, env, err := post(ts, own[c][r])
				if err != nil {
					t.Error(err)
					return
				}
				checkReply(t, code, env, ownWant[c][r], "distinct plan under chaos")
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
}

// TestStatsExposesSharedScan asserts /stats carries the sharing counter
// (cache.coalesced, present with the cache off too), the admission
// queue-wait histogram and the runtime's loop count after traffic.
func TestStatsExposesSharedScan(t *testing.T) {
	_, ts := newTestServer(t, flightConfig())
	for i := 0; i < 4; i++ {
		code, _ := postQuery(t, ts, flightTestBodies()[0])
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
		Cache struct {
			Coalesced *uint64 `json:"coalesced"`
		} `json:"cache"`
		QueueWaitMS *struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
		} `json:"queue_wait_ms"`
		ActiveLoops *int `json:"active_loops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Cache.Coalesced == nil {
		t.Error("/stats missing cache.coalesced")
	}
	if payload.QueueWaitMS == nil || payload.QueueWaitMS.Count == 0 {
		t.Error("/stats missing queue_wait_ms histogram after served queries")
	}
	if payload.ActiveLoops == nil {
		t.Error("/stats missing active_loops")
	}
}
