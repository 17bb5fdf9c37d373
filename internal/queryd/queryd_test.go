// End-to-end tests for the query service: HTTP responses checked against
// direct library calls on the same datasets, plus the -race exercise of
// concurrent queries against atomic config swaps.
package queryd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/analytics"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/obs/serve"
	"smartarrays/internal/rts"
)

const (
	testRows     = 20000
	testVertices = 2000
)

// newTestServer builds a server over a 4-core UMA runtime with one small
// deterministic dataset and mounts it under httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	rt := rts.New(machine.UMA(4))
	srv, err := NewServer(rt, cfg, []DatasetSpec{
		{Name: "demo", Rows: testRows, Vertices: testVertices, Seed: 7},
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

// postQuery POSTs a /query body and decodes the response envelope.
func postQuery(t *testing.T, ts *httptest.Server, body map[string]any) (int, map[string]json.RawMessage) {
	t.Helper()
	code, env, err := post(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, env
}

// post is postQuery for goroutines other than the test's own: it returns
// the error instead of failing the test.
func post(ts *httptest.Server, body map[string]any) (int, map[string]json.RawMessage, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var env map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return 0, nil, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, env, nil
}

func resultField[T any](t *testing.T, env map[string]json.RawMessage, field string) T {
	t.Helper()
	var res map[string]json.RawMessage
	if err := json.Unmarshal(env["result"], &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	var v T
	if err := json.Unmarshal(res[field], &v); err != nil {
		t.Fatalf("decoding result.%s: %v", field, err)
	}
	return v
}

// TestQueryAggregateMatchesDirect compares served aggregates against
// direct colstore calls on the same table — the served answer must be
// bit-identical to the library answer.
func TestQueryAggregateMatchesDirect(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		agg   string
		caggs colstore.Agg
		where []map[string]any
		preds []colstore.Pred
	}{
		{"sum", colstore.Sum, nil, nil},
		{"count", colstore.Count,
			[]map[string]any{{"column": "flag", "op": "=", "value": 1}},
			[]colstore.Pred{{Column: "flag", Op: colstore.Eq, Value: 1}}},
		{"sum", colstore.Sum,
			[]map[string]any{{"column": "region", "op": "<", "value": 8}},
			[]colstore.Pred{{Column: "region", Op: colstore.Lt, Value: 8}}},
		{"min", colstore.Min,
			[]map[string]any{{"column": "region", "op": ">=", "value": 12}},
			[]colstore.Pred{{Column: "region", Op: colstore.Ge, Value: 12}}},
		{"max", colstore.Max, nil, nil},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%dpreds", tc.agg, len(tc.preds)), func(t *testing.T) {
			want, err := ds.Table.Aggregate(tc.caggs, "amount", tc.preds...)
			if err != nil {
				t.Fatal(err)
			}
			body := map[string]any{"dataset": "demo", "op": "aggregate", "agg": tc.agg, "column": "amount"}
			if tc.where != nil {
				body["where"] = tc.where
			}
			status, env := postQuery(t, ts, body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, env["error"])
			}
			if got := resultField[uint64](t, env, "value"); got != want {
				t.Fatalf("served %s = %d, direct call = %d", tc.agg, got, want)
			}
		})
	}

	// Unpredicated sums must also match the build-time checksums.
	for _, col := range ds.Columns {
		status, env := postQuery(t, ts, map[string]any{
			"dataset": "demo", "op": "aggregate", "agg": "sum", "column": col.Name,
		})
		if status != http.StatusOK {
			t.Fatalf("sum(%s) status %d", col.Name, status)
		}
		if err := spotCheck(ds, col.Name, resultField[uint64](t, env, "value")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryGroupByMatchesDirect compares served group-by rows against the
// direct call.
func TestQueryGroupByMatchesDirect(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	preds := []colstore.Pred{{Column: "flag", Op: colstore.Eq, Value: 1}}
	rows, err := ds.Table.GroupBy("region", colstore.Sum, "amount", preds...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for _, r := range rows {
		want[r.Key] = r.Value
	}

	status, env := postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "groupby", "key": "region", "agg": "sum", "column": "amount",
		"where": []map[string]any{{"column": "flag", "op": "=", "value": 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, env["error"])
	}
	got := map[uint64]uint64{}
	for _, g := range resultField[[]GroupResult](t, env, "groups") {
		got[g.Key] = g.Value
	}
	if len(got) != len(want) {
		t.Fatalf("served %d groups, direct call %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %d: served %d, direct %d", k, got[k], v)
		}
	}
}

// TestQueryGraphMatchesDirect checks the graph kernels against direct
// analytics calls and structural invariants.
func TestQueryGraphMatchesDirect(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}

	status, env := postQuery(t, ts, map[string]any{"dataset": "demo", "op": "degree"})
	if status != http.StatusOK {
		t.Fatalf("degree status %d: %s", status, env["error"])
	}
	if got := resultField[uint64](t, env, "degree_sum"); got != 2*ds.Edges {
		t.Fatalf("degree sum %d, want 2x%d edges", got, ds.Edges)
	}

	levels, depth, _, err := analytics.BFS(srv.Runtime(), ds.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reached uint64
	for _, l := range levels {
		if l >= 0 {
			reached++
		}
	}
	status, env = postQuery(t, ts, map[string]any{"dataset": "demo", "op": "bfs", "source": 0})
	if status != http.StatusOK {
		t.Fatalf("bfs status %d: %s", status, env["error"])
	}
	if got := resultField[uint64](t, env, "reached"); got != reached {
		t.Fatalf("bfs reached %d, direct call %d", got, reached)
	}
	if got := resultField[int](t, env, "levels"); got != depth {
		t.Fatalf("bfs levels %d, direct call %d", got, depth)
	}

	cfg := analytics.DefaultPageRankConfig()
	cfg.MaxIters = 10
	ranks, _, _, err := analytics.PageRank(srv.Runtime(), ds.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	topV, topR := 0, ranks[0]
	for v, r := range ranks {
		wantSum += r
		if r > topR {
			topV, topR = v, r
		}
	}
	status, env = postQuery(t, ts, map[string]any{"dataset": "demo", "op": "pagerank", "iters": 10})
	if status != http.StatusOK {
		t.Fatalf("pagerank status %d: %s", status, env["error"])
	}
	// The sum comparison is loose: the served and direct runs may stop at
	// adjacent iterations if the residual lands on the tolerance boundary.
	if sum := resultField[float64](t, env, "rank_sum"); math.Abs(sum-wantSum) > 1e-3 {
		t.Fatalf("pagerank rank sum %v, direct call %v", sum, wantSum)
	}
	if iters := resultField[int](t, env, "iters"); iters < 1 || iters > 10 {
		t.Fatalf("pagerank iters %d, want 1..10", iters)
	}
	top := resultField[[]VertexRank](t, env, "top")
	if len(top) == 0 || top[0].Vertex != uint64(topV) {
		t.Fatalf("pagerank top vertex %+v, direct argmax %d", top, topV)
	}
}

// TestPageRankCorruptEdgeIs500 serves PageRank over a graph one of whose
// reverse edges names vertex n — a value the edge width holds, one past the
// last vertex. The contribution read fused into PageRank's segment sum must
// bounds-check it: the query is a 500 from execute's recover naming the
// index, and once the edge is restored the next query succeeds.
func TestPageRankCorruptEdgeIs500(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	n := g.NumVertices
	if n%bitpack.ChunkSize == 0 || !bitpack.MustNew(g.REdge.Bits()).Fits(n) {
		t.Fatalf("%d vertices at a %d-bit edge width: vertex id %d must fit and fall inside a chunk's padding", n, g.REdge.Bits(), n)
	}
	e := g.NumEdges / 2
	orig := g.REdge.GetFrom(0, e)
	g.REdge.Init(0, e, n)
	body := map[string]any{"dataset": "demo", "op": "pagerank", "iters": 5}
	status, env := postQuery(t, ts, body)
	want := fmt.Sprintf("index out of range [%d] with length %d", n, n)
	if msg := string(env["error"]); status != http.StatusInternalServerError ||
		!strings.Contains(msg, errExecPanicked.Error()) || !strings.Contains(msg, want) {
		t.Fatalf("corrupt edge: status %d (%s), want 500 naming the panic and %q", status, msg, want)
	}
	g.REdge.Init(0, e, orig)
	status, env = postQuery(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("restored graph: status %d (%s)", status, env["error"])
	}
	if iters := resultField[int](t, env, "iters"); iters < 1 || iters > 5 {
		t.Fatalf("restored graph: pagerank iters %d, want 1..5", iters)
	}
}

// TestQueryErrors maps the failure surface onto statuses: malformed plans
// are 400, unknown datasets 404, plans that validate but fail in the
// engine 422 (never 5xx — the load gate depends on that).
func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	cases := []struct {
		name   string
		body   map[string]any
		status int
	}{
		{"unknown-op", map[string]any{"dataset": "demo", "op": "explode"}, http.StatusBadRequest},
		{"unknown-field", map[string]any{"dataset": "demo", "op": "degree", "colunm": "x"}, http.StatusBadRequest},
		{"missing-dataset", map[string]any{"op": "degree"}, http.StatusBadRequest},
		{"unknown-dataset", map[string]any{"dataset": "nope", "op": "degree"}, http.StatusNotFound},
		{"unknown-column", map[string]any{"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "nope"}, http.StatusUnprocessableEntity},
		{"iters-out-of-range", map[string]any{"dataset": "demo", "op": "pagerank", "iters": 1000}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, env := postQuery(t, ts, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, env["error"])
			}
		})
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
}

// TestQuerySaturation429 narrows admission to one slot with no queue and
// fires concurrent distinct queries (identical ones would wait on each
// other's flight instead): some must be served, the overflow must be 429,
// and nothing may 5xx.
func TestQuerySaturation429(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 0
	_, ts := newTestServer(t, cfg)

	var ok, rejected, other atomic.Uint64
	for round := 0; round < 10 && (ok.Load() == 0 || rejected.Load() == 0); round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, _ := postQuery(t, ts, map[string]any{
					"dataset": "demo", "op": "pagerank", "iters": 30 + i,
				})
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					other.Add(1)
				}
			}(i)
		}
		wg.Wait()
	}
	if ok.Load() == 0 {
		t.Fatal("no query was served under saturation")
	}
	if rejected.Load() == 0 {
		t.Fatal("no query was shed with 429 despite max_in_flight=1, max_queue=0")
	}
	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", other.Load())
	}
}

// TestConcurrentQueriesWithConfigSwap is the -race exercise: clients
// hammer mixed queries while the control plane swaps configs and
// materializes a new dataset mid-flight. All answers must stay correct
// (checked against build-time checksums) and no response may be a 5xx.
func TestConcurrentQueriesWithConfigSwap(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	ds, err := srv.Dataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	var amountSum uint64
	for _, c := range ds.Columns {
		if c.Name == "amount" {
			amountSum = c.Sum
		}
	}

	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	var bad atomic.Uint64
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch i % 3 {
				case 0:
					status, env := postQuery(t, ts, map[string]any{
						"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
						"priority": c - 4, "tenant": fmt.Sprintf("t%d", c%2),
					})
					if status == http.StatusOK {
						if got := resultField[uint64](t, env, "value"); got != amountSum {
							t.Errorf("sum(amount) = %d under swap, want %d", got, amountSum)
						}
					} else if status != http.StatusTooManyRequests {
						bad.Add(1)
					}
				case 1:
					status, _ := postQuery(t, ts, map[string]any{
						"dataset": "demo", "op": "groupby", "key": "region", "agg": "count", "column": "id",
					})
					if status != http.StatusOK && status != http.StatusTooManyRequests {
						bad.Add(1)
					}
				default:
					status, _ := postQuery(t, ts, map[string]any{"dataset": "demo", "op": "degree"})
					if status != http.StatusOK && status != http.StatusTooManyRequests {
						bad.Add(1)
					}
				}
			}
		}()
	}

	// Control plane: alternate tight and wide admission configs, then add
	// a dataset while queries are in flight.
	for i := 0; i < 20; i++ {
		cfg := DefaultConfig()
		if i%2 == 0 {
			cfg.MaxInFlight = 1
			cfg.MaxQueue = 2
			cfg.QueueTimeoutMS = 100
		} else {
			cfg.MaxInFlight = 8
		}
		if err := srv.apply(controlRequest{Config: &cfg}); err != nil {
			t.Error(err)
		}
	}
	if err := srv.apply(controlRequest{Datasets: []DatasetSpec{{Name: "live", Rows: 4000, Seed: 9}}}); err != nil {
		t.Error(err)
	}
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 429 during swaps", bad.Load())
	}
	// The dataset added mid-flight serves correctly afterwards.
	live, err := srv.Dataset("live")
	if err != nil {
		t.Fatal(err)
	}
	status, env := postQuery(t, ts, map[string]any{
		"dataset": "live", "op": "aggregate", "agg": "sum", "column": "amount",
	})
	if status != http.StatusOK {
		t.Fatalf("query on live-added dataset: status %d", status)
	}
	if err := spotCheck(live, "amount", resultField[uint64](t, env, "value")); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAndControlEndpoints exercises /healthz, /datasets, /stats and
// the config control plane.
func TestStatsAndControlEndpoints(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Datasets []Meta `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cat.Datasets) != 1 || cat.Datasets[0].Name != "demo" || len(cat.Datasets[0].Columns) != 4 {
		t.Fatalf("catalog = %+v", cat)
	}

	// Serve a few queries so /stats has latency data.
	for i := 0; i < 3; i++ {
		if status, _ := postQuery(t, ts, map[string]any{
			"dataset": "demo", "op": "aggregate", "agg": "count", "column": "id",
		}); status != http.StatusOK {
			t.Fatalf("warmup query status %d", status)
		}
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Served < 3 || stats.Admission.Admitted < 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.LatencyMS == nil || stats.LatencyMS.Count < 3 || stats.LatencyMS.P99 < stats.LatencyMS.P50 {
		t.Fatalf("latency quantiles = %+v", stats.LatencyMS)
	}

	// Config swap through the control endpoint round-trips.
	newCfg := DefaultConfig()
	newCfg.MaxInFlight = 9
	body, _ := json.Marshal(map[string]any{"config": newCfg})
	resp, err = http.Post(ts.URL+"/control/config", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config POST = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/control/config")
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.MaxInFlight != 9 {
		t.Fatalf("config after swap = %+v", got)
	}

	// Invalid configs are rejected with 400 and leave the old one.
	body, _ = json.Marshal(map[string]any{"config": Config{MaxInFlight: -1}})
	resp, err = http.Post(ts.URL+"/control/config", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config POST = %d, want 400", resp.StatusCode)
	}
}

// spotCheck verifies a served aggregate against the dataset's build-time
// column checksums; saload does the same over HTTP.
func spotCheck(ds *Dataset, column string, got uint64) error {
	for _, c := range ds.Columns {
		if c.Name == column {
			if c.Sum != got {
				return fmt.Errorf("queryd: sum(%s) = %d, build-time checksum %d", column, got, c.Sum)
			}
			return nil
		}
	}
	return fmt.Errorf("queryd: no checksum for column %q", column)
}

// TestNewServerFreesOnFailedSpec fails NewServer on its second spec — a
// duplicate name, then an empty dataset — and checks that the dataset
// built before it is freed: simulated memory and the array registry
// return to what they held before the call.
func TestNewServerFreesOnFailedSpec(t *testing.T) {
	rt := rts.New(machine.UMA(4))
	defer rt.Close()
	reg := obs.NewArrayRegistry()
	good := DatasetSpec{Name: "demo", Rows: 1000, Vertices: 100, Seed: 7}
	for _, bad := range []DatasetSpec{good, {Name: "empty"}} {
		used, arrays := rt.Memory().TotalUsedBytes(), reg.Len()
		if _, err := NewServer(rt, DefaultConfig(), []DatasetSpec{good, bad}, nil, reg); err == nil {
			t.Fatalf("NewServer accepted %+v after %+v", bad, good)
		}
		if got := rt.Memory().TotalUsedBytes(); got != used {
			t.Errorf("spec %q: %d bytes of simulated memory in use after the failed call, %d before", bad.Name, got, used)
		}
		if got := reg.Len(); got != arrays {
			t.Errorf("spec %q: %d registry entries after the failed call, %d before", bad.Name, got, arrays)
		}
	}
}

// TestStopDrainsQueriesInFlight calls Start's stop while a pagerank is
// held in execution: the listener closes at once, and the query in flight
// still gets its 200 before the runtime closes.
func TestStopDrainsQueriesInFlight(t *testing.T) {
	rt := rts.New(machine.UMA(4))
	srv, err := NewServer(rt, DefaultConfig(), []DatasetSpec{{Name: "demo", Vertices: testVertices, Seed: 7}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := holdWorkers(t, rt)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/query", "application/json",
			strings.NewReader(`{"dataset":"demo","op":"pagerank","iters":5}`))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitFor(t, "the pagerank's slot", func() bool { return srv.adm.Stats().InFlight == 1 })
	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	waitFor(t, "the listener to close", func() bool {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	release()
	if got := <-status; got != http.StatusOK {
		t.Errorf("pagerank in flight at stop: status %d, want 200", got)
	}
	if err := <-stopped; err != nil {
		t.Errorf("stop: %v", err)
	}
}

// TestHalfSentRequestTimesOut sends half a request line to queryd's server
// and to the introspection server and stops: each must close the
// connection within serve.ReadHeaderTimeout plus a second, instead of
// holding it open for good.
func TestHalfSentRequestTimesOut(t *testing.T) {
	srv, err := NewServer(rts.New(machine.UMA(2)), DefaultConfig(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, start := range map[string]func(string) (string, func() error, error){
		"queryd": srv.Start,
		"serve":  serve.New(nil, nil, nil).Start,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			addr, stop, err := start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { stop() })
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := io.WriteString(c, "POST /query HTTP/1.1\r\n"); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(serve.ReadHeaderTimeout + time.Second))
			_, err = io.ReadAll(c)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open %v after a half-sent request line", serve.ReadHeaderTimeout+time.Second)
			}
		})
	}
}
