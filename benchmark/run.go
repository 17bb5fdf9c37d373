package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"smartarrays/internal/analytics"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/core"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

const (
	// Every window is a fixed share of -seconds, so one factor scales the
	// whole run: warm-up 0.15x, the measured window 1x in five slices, the
	// traced run's reference and traced passes 0.25x each.
	warmupShare = 0.15
	tracedShare = 0.25
	numSlices   = 5

	// setupRuns servers are started per measured run; setup_s is the
	// median and the last one serves the traffic.
	setupRuns = 3

	explainReplays = 50 // plans re-sent with explain after the traced pass
	localReplays   = 16 // traced requests re-run in-process
)

// env is what every run of one harness invocation shares.
type env struct {
	outDir  string
	bin     string // the built saserve
	reaper  *reaper
	seed    uint64
	seconds float64
}

func (e *env) window(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// phases logs where a run's wall time went, on stderr: the benchmark has a
// time budget of its own to keep.
type phases struct {
	label string
	last  time.Time
	parts []string
}

func startPhases(label string) *phases { return &phases{label: label, last: time.Now()} }

func (p *phases) done(name string) {
	now := time.Now()
	p.parts = append(p.parts, fmt.Sprintf("%s %.1fs", name, now.Sub(p.last).Seconds()))
	p.last = now
}

func (p *phases) log() {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", p.label, strings.Join(p.parts, ", "))
}

// runResult is one run's metrics plus what the report keeps beside them.
type runResult struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	// Attempted and Failed count the requests of the timed passes.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems lists every reason the run is not correct; empty means it is.
	Problems []string   `json:"problems,omitempty"`
	Window   *passStats `json:"window,omitempty"`
	SetupS   []float64  `json:"setup_s_runs,omitempty"`

	trace *traceLog
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish folds the server-side evidence into the result: a reply that
// failed on the wire, and any panic the server logged.
func (r *runResult) finish(e *env, passes ...*pass) {
	for _, p := range passes {
		if p.firstErr != nil {
			r.problem("request failed: %v", p.firstErr)
		}
	}
	bad, err := stderrPanics(filepath.Join(e.outDir, "saserve."+r.Workload+".stderr"))
	if err != nil {
		r.problem("reading server stderr: %v", err)
	}
	for _, line := range bad {
		r.problem("server stderr: %s", line)
	}
}

// startTraffic connects the clients to a fresh server and brings it to the
// state the timed passes start from: hot plans issued once, warm-up done.
func startTraffic(e *env, srv *server, wl string, ph *phases) ([]*client, error) {
	gen := newGenerator(wl, e.seed)
	clients := newClients(srv.addr, gen)
	if err := prefill(clients, gen.prefill()); err != nil {
		closeClients(clients)
		return nil, err
	}
	ph.done("prefill")
	runPass(clients, e.window(warmupShare), nil)
	return clients, nil
}

// runMeasured is a workload's untraced run: set-up timed setupRuns times,
// prefill, warm-up, then the measured window, with every verifyEvery-th
// reply checked once the window has closed. The oracle behind ver was
// built before this call, so it does not compete with a set-up being timed.
func runMeasured(e *env, wl string, ver *verifier) (*runResult, error) {
	res := &runResult{Workload: wl, Metrics: map[string]float64{}}
	ph := startPhases(wl + " measured")
	defer ph.log()
	var err error
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = startServer(e.reaper, e.bin, e.outDir, wl, e.seed); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, srv.setup.Seconds())
	}
	defer srv.stop()
	ph.done("setups")

	clients, err := startTraffic(e, srv, wl, ph)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)

	keep := newKeeper()
	p := runPass(clients, e.window(1), keep.everyNth(verifyEvery))
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	ph.done("passes")

	if err := keep.verify(p, ver.check); err != nil {
		res.problem("%v", err)
	}
	ph.done("verify")
	st := summarize(p.all(), p.window, numSlices)
	res.Window, res.Attempted, res.Failed = &st, st.Attempted, st.Failed
	res.finish(e, p)
	if st.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed inside the window", wl)
	}
	res.Metrics["qps"] = st.QPS
	res.Metrics["p50_ms"] = st.P50MS
	res.Metrics["ok_share"] = float64(st.Attempted-st.Failed) / float64(st.Attempted)
	res.Metrics["setup_s"] = median(res.SetupS)
	res.Metrics["rss_mb"] = rss
	return res, nil
}

// runTraced is a workload's traced run against a fresh server: a reference
// pass with tracing off, the traced pass in which the client parses every
// reply into spans, an explain replay of sampled plans on the server, and
// in-process replays of sampled requests on loc once the server is gone.
func runTraced(e *env, wl string, loc *local, ver *verifier) (*runResult, error) {
	res := &runResult{Workload: wl, Metrics: map[string]float64{}, trace: &traceLog{workload: wl}}
	ph := startPhases(wl + " traced")
	defer ph.log()
	srv, err := startServer(e.reaper, e.bin, e.outDir, wl, e.seed)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ph.done("setup")
	clients, err := startTraffic(e, srv, wl, ph)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)

	refKeep := newKeeper()
	ref := runPass(clients, e.window(tracedShare), refKeep.everyNth(verifyEvery))

	keep := newKeeper()
	traced := make([][]tracedReq, numClients)
	var parseErr [numClients]error
	tp := runPass(clients, e.window(tracedShare), func(x *exchange) {
		var resp wireResponse
		if err := json.Unmarshal(x.reply, &resp); err != nil && parseErr[x.client] == nil {
			parseErr[x.client] = err
		}
		traced[x.client] = append(traced[x.client], tracedReq{
			body: x.body, start: x.start, lat: x.lat,
			wall:   time.Duration(resp.WallMS * float64(time.Millisecond)),
			cached: resp.Cached, shared: resp.Shared,
		})
		keep.keep(x)
	})
	for _, err := range parseErr {
		if err != nil {
			res.problem("decoding a traced reply: %v", err)
		}
	}
	var reqs []tracedReq
	for _, t := range traced {
		reqs = append(reqs, t...)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: the traced pass completed no request", wl)
	}

	ph.done("passes")
	profiles, err := explainReplay(clients, sampleEvenly(reqs, explainReplays))
	if err != nil {
		return nil, err
	}
	srv.stop()
	ph.done("explain")

	if err := refKeep.verify(ref, ver.check); err != nil {
		res.problem("%v", err)
	}
	if err := keep.verify(tp, ver.check); err != nil {
		res.problem("%v", err)
	}
	ph.done("verify")
	refStats := summarize(ref.all(), ref.window, numSlices)
	tracedStats := summarize(tp.all(), tp.window, numSlices)
	res.Attempted = refStats.Attempted + tracedStats.Attempted
	res.Failed = refStats.Failed + tracedStats.Failed
	res.finish(e, ref, tp)

	m := res.Metrics
	wireMetrics(reqs, m)
	profileMetrics(profiles, m)
	m["loadgen.tail_ms"] = refStats.TailMS
	m["loadgen.qps_spread"] = refStats.QPSSpread
	if refStats.QPS > 0 {
		m["trace.overhead_pct"] = 100 * (refStats.QPS - tracedStats.QPS) / refStats.QPS
	}
	res.Window = &refStats

	// In-process replays: what the plan costs on an idle host, and so how
	// much of the server's wall time is not the plan.
	replays := map[int]*replay{}
	var overheadMS []float64
	for _, i := range sampleIndexes(len(reqs), localReplays) {
		rp, err := replayLocally(loc, reqs[i])
		if err == nil && rp.graph {
			err = ver.rank.want.agrees(rp.iters, rp.rankSum)
		}
		if err != nil {
			res.problem("replaying %s: %v", reqs[i].body, err)
			continue
		}
		replays[i] = rp
		over := reqs[i].wall
		if !reqs[i].cached {
			over -= rp.exec
		}
		overheadMS = append(overheadMS, ms(over))
	}
	m["queryd.overhead_ms"] = median(overheadMS)
	ph.done("replays")
	for i, r := range reqs {
		res.trace.addRequest(i+1, r, replays[i])
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// wireMetrics reduces what every traced request said on the wire.
func wireMetrics(reqs []tracedReq, m map[string]float64) {
	var netMS, wallMS []float64
	var cached, shared float64
	for _, r := range reqs {
		netMS = append(netMS, ms(r.lat-r.wall))
		wallMS = append(wallMS, ms(r.wall))
		if r.cached {
			cached++
		}
		if r.shared {
			shared++
		}
	}
	m["net.overhead_ms"] = median(netMS)
	m["queryd.server_ms"] = median(wallMS)
	m["queryd.cache_hit_rate"] = cached / float64(len(reqs))
	m["queryd.shared_share"] = shared / float64(len(reqs))
}

// profileMetrics reduces the execution profiles of the explain replay.
func profileMetrics(profiles []*wireProfile, m map[string]float64) {
	var execMS []float64
	var chunks, pruned, morsels float64
	for _, pr := range profiles {
		for _, st := range pr.Stages {
			if st.Name == "execute" {
				execMS = append(execMS, float64(st.NS)/1e6)
			}
		}
		for _, c := range pr.Columns {
			chunks += float64(c.Chunks)
			pruned += float64(c.Pruned)
		}
		morsels += float64(pr.Morsels)
	}
	m["colstore.exec_ms"] = median(execMS)
	m["colstore.chunks_pruned_share"] = 0 // graph plans touch no column
	if chunks > 0 {
		m["colstore.chunks_pruned_share"] = pruned / chunks
	}
	m["rts.morsels_per_query"] = morsels / float64(len(profiles))
}

// sampleIndexes spreads k picks evenly over n items.
func sampleIndexes(n, k int) []int {
	if k > n {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

func sampleEvenly(reqs []tracedReq, k int) []tracedReq {
	var out []tracedReq
	for _, i := range sampleIndexes(len(reqs), k) {
		out = append(out, reqs[i])
	}
	return out
}

// explainReplay re-sends plans with "explain": true, spread over the
// clients so the server profiles them under the workload's own
// concurrency, and returns their execution profiles.
func explainReplay(clients []*client, reqs []tracedReq) ([]*wireProfile, error) {
	profiles := make([]*wireProfile, len(reqs))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := c.id; i < len(reqs); i += len(clients) {
				body := reqs[i].body
				if !bytes.Contains(body, []byte(`"explain"`)) {
					body = append(bytes.TrimSuffix(append([]byte(nil), body...), []byte("}")), `,"explain":true}`...)
				}
				status, reply, err := c.post(body)
				if err != nil {
					errs[c.id] = fmt.Errorf("explain replay: %w", err)
					return
				}
				var resp wireResponse
				if status != http.StatusOK || json.Unmarshal(reply, &resp) != nil || resp.Profile == nil {
					errs[c.id] = fmt.Errorf("explain replay: HTTP %d without a profile: %s", status, bytes.TrimSpace(reply))
					return
				}
				profiles[i] = resp.Profile
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return profiles, nil
}

// replayLocally re-runs one traced request's plan on the in-process
// dataset through the same scheduler engine the server uses.
func replayLocally(loc *local, r tracedReq) (*replay, error) {
	rp := &replay{}
	t0 := time.Now()
	p, err := plan.Parse(r.body)
	rp.parse = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if r.cached {
		return rp, nil
	}
	rt := loc.srv.Runtime()
	if p.Op == plan.OpPageRank {
		rp.graph = true
		cfg := analytics.DefaultPageRankConfig()
		cfg.MaxIters = p.Iters
		t0 = time.Now()
		ranks, iters, _, err := analytics.PageRank(rt, loc.ds.Graph, cfg)
		rp.exec = time.Since(t0)
		if err != nil {
			return nil, err
		}
		rp.iters = iters
		for _, x := range ranks {
			rp.rankSum += x
		}
		rp.dispatch = emptyLoops(rt, iters+1, loc.ds.Vertices)
		return rp, nil
	}

	tbl := loc.ds.Table.WithRuntime(rt)
	t0 = time.Now()
	if p.Op == plan.OpAggregate {
		_, err = tbl.Aggregate(p.Agg, p.Column, p.Preds...)
	} else {
		_, err = tbl.GroupBy(p.Key, p.Agg, p.Column, p.Preds...)
	}
	rp.exec = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if rp.kernels, err = kernelPasses(tbl, p); err != nil {
		return nil, err
	}
	rp.dispatch = emptyLoops(rt, 1, tbl.Rows())
	return rp, nil
}

// kernelPasses times the core kernels a table plan needs, on one
// goroutine over the whole column: the mask build per predicate and, for
// an aggregate, the masked fold.
func kernelPasses(tbl *colstore.Table, p *plan.Plan) (time.Duration, error) {
	rows := tbl.Rows()
	_, n := core.MaskChunks(0, rows)
	masks := make([]uint64, n)
	target, err := tbl.Column(p.Column)
	if err != nil {
		return 0, err
	}
	cols := make([]*colstore.Column, len(p.Preds))
	for i, pr := range p.Preds {
		if cols[i], err = tbl.Column(pr.Column); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	live := true
	for i, pr := range p.Preds {
		if i == 0 {
			live = core.MaskRange(cols[i].Array(), 0, 0, rows, pr.Op.Cmp(), pr.Value, masks)
		} else if live {
			live = core.MaskRangeAnd(cols[i].Array(), 0, 0, rows, pr.Op.Cmp(), pr.Value, masks)
		}
	}
	if p.Op == plan.OpAggregate && live {
		switch p.Agg {
		case colstore.Count:
			sink = bitpack.PopcountMasks(masks)
		case colstore.Sum:
			sink = core.ReduceRangeMasked(target.Array(), 0, 0, rows, core.ReduceSum, masks)
		case colstore.Min:
			sink = core.ReduceRangeMasked(target.Array(), 0, 0, rows, core.ReduceMin, masks)
		default:
			sink = core.ReduceRangeMasked(target.Array(), 0, 0, rows, core.ReduceMax, masks)
		}
	}
	return time.Since(t0), nil
}

// emptyLoops times n parallel loops over [0, length) whose body does
// nothing: what the plan's loops cost in dispatch alone.
func emptyLoops(rt *rts.Runtime, n int, length uint64) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rt.ParallelFor(0, length, 0, func(*rts.Worker, uint64, uint64) {})
	}
	return time.Since(t0)
}

// sink keeps measured calls from being optimised away.
var sink uint64
