// Package loadgen drives a queryd server with a mixed query workload and
// reports throughput and latency percentiles — the serving-path
// counterpart of the modeled-figure benchmarks, and the thing the
// load-smoke CI gate runs.
//
// Two arrival models:
//
//   - Open loop (Rate > 0): arrivals follow a Poisson process at Rate
//     queries/sec, independent of completions — the honest overload
//     model, where a slow server accumulates outstanding requests
//     instead of silently slowing the generator down. Concurrency caps
//     the outstanding requests; arrivals past the cap are counted as
//     dropped, never silently delayed.
//   - Closed loop (Rate == 0): Concurrency workers issue queries
//     back-to-back — the classic "N concurrent clients" shape the
//     EXPERIMENTS table uses.
//
// Latencies land in an obs.Histogram (the same log2-bucketed lock-free
// histogram the server uses), so client- and server-side percentiles are
// directly comparable.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartarrays/internal/obs"
	"smartarrays/internal/queryd"
)

// QuerySpec is one weighted entry of the workload mix.
type QuerySpec struct {
	// Name labels the spec in the report ("agg-sum", "pagerank"...).
	Name string `json:"name"`
	// Weight is the relative pick frequency.
	Weight int `json:"weight"`
	// Body is the /query JSON payload.
	Body json.RawMessage `json:"body"`
}

// Options configure one load run.
type Options struct {
	// Addr is the server's host:port.
	Addr string
	// Duration is how long to generate load.
	Duration time.Duration
	// Rate selects open-loop Poisson arrivals per second; 0 selects
	// closed-loop.
	Rate float64
	// Concurrency is the closed-loop worker count, or the open-loop
	// outstanding-request cap.
	Concurrency int
	// Mix is the weighted workload; empty uses DefaultMix against the
	// server's first dataset.
	Mix []QuerySpec
	// AggOnly restricts the mix to table scans (aggregate/groupby) — the
	// coalescing and profiling phases use it so graph kernels don't dilute
	// the signal.
	AggOnly bool
	// Tenants spreads the workload over N synthetic tenant identities
	// (tenant-0 .. tenant-N-1) injected into each request body, so the
	// server accumulates per-tenant RED series; 0 or 1 sends untagged
	// requests. Bodies are pre-built per (spec, tenant) at setup, so the
	// hot path only indexes.
	Tenants int
	// Seed makes runs reproducible: every client RNG (closed-loop plan
	// pickers, the open-loop arrival and pick generators) is derived from
	// it through decorrelated splitmix64 streams, so the same seed replays
	// the same pick sequences regardless of scheduling.
	Seed int64
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
}

// Report is the machine-readable result (written as JSON by saload and
// asserted on by the CI gate).
type Report struct {
	Addr        string  `json:"addr"`
	Mode        string  `json:"mode"`
	DurationSec float64 `json:"duration_sec"`
	Concurrency int     `json:"concurrency"`
	RateTarget  float64 `json:"rate_target,omitempty"`

	Sent      uint64 `json:"sent"`
	OK        uint64 `json:"ok"`
	Rejected  uint64 `json:"rejected_429"`
	Other4xx  uint64 `json:"other_4xx"`
	Errors5xx uint64 `json:"errors_5xx"`
	Transport uint64 `json:"transport_errors"`
	Dropped   uint64 `json:"dropped_arrivals"`

	QPS         float64 `json:"qps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxInFlight int     `json:"max_in_flight_observed"`

	// Server-side result-cache deltas over the run (zero when the server
	// runs with caching off or /stats is unreachable).
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Coalesced is the server-side count of queries answered by an
	// identical plan in flight over the run (zero when /stats is
	// unreachable).
	Coalesced uint64 `json:"coalesced"`

	// PerOp carries one latency summary per plan type, so a win on
	// aggregates isn't masked by graph kernels in a mixed run.
	PerOp map[string]OpLatency `json:"per_op"`

	// PerTenant carries one client-side latency/throughput summary per
	// synthetic tenant (present only when Options.Tenants > 1).
	PerTenant map[string]TenantLatency `json:"per_tenant,omitempty"`

	// SlowlogObserved/SlowlogSlow are the server slow-query-log deltas
	// over the run — profiles published (one per query) and profiles over
	// the slow threshold (zero when /debug/slowlog is unreachable).
	SlowlogObserved uint64 `json:"slowlog_observed"`
	SlowlogSlow     uint64 `json:"slowlog_slow"`
	// TenantSeries counts the per-tenant × per-op RED series the server
	// holds after the run (from /stats).
	TenantSeries int `json:"tenant_series"`
}

// TenantLatency is one synthetic tenant's client-side summary.
type TenantLatency struct {
	Count uint64  `json:"count"`
	QPS   float64 `json:"qps"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// OpLatency is one plan type's served-query latency summary.
type OpLatency struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summary renders the human-readable one-screen result.
func (r *Report) Summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "loadgen: %s for %.1fs against %s\n", r.Mode, r.DurationSec, r.Addr)
	fmt.Fprintf(&b, "  sent %d  ok %d  429 %d  4xx %d  5xx %d  transport %d  dropped %d\n",
		r.Sent, r.OK, r.Rejected, r.Other4xx, r.Errors5xx, r.Transport, r.Dropped)
	fmt.Fprintf(&b, "  %.1f queries/sec   p50 %.2f ms   p95 %.2f ms   p99 %.2f ms   max in-flight %d\n",
		r.QPS, r.P50MS, r.P95MS, r.P99MS, r.MaxInFlight)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "  cache: %d hits  %d misses  (%.1f%% hit rate)\n",
			r.CacheHits, r.CacheMisses, 100*r.CacheHitRate)
	}
	if r.Coalesced > 0 {
		fmt.Fprintf(&b, "  coalesced: %d answered by an identical plan in flight\n", r.Coalesced)
	}
	if r.SlowlogObserved > 0 {
		fmt.Fprintf(&b, "  profiles: %d observed  %d slow  (%d tenant series)\n",
			r.SlowlogObserved, r.SlowlogSlow, r.TenantSeries)
	}
	tenants := make([]string, 0, len(r.PerTenant))
	for name := range r.PerTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		l := r.PerTenant[name]
		fmt.Fprintf(&b, "  %-12s %6d   %.1f qps   p50 %.2f ms   p95 %.2f ms   p99 %.2f ms\n",
			name, l.Count, l.QPS, l.P50MS, l.P95MS, l.P99MS)
	}
	names := make([]string, 0, len(r.PerOp))
	for name := range r.PerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := r.PerOp[name]
		fmt.Fprintf(&b, "  %-12s %6d   p50 %.2f ms   p95 %.2f ms   p99 %.2f ms\n",
			name, l.Count, l.P50MS, l.P95MS, l.P99MS)
	}
	return b.String()
}

// FetchMeta reads the server's dataset catalog.
func FetchMeta(addr string) ([]queryd.Meta, error) {
	resp, err := http.Get("http://" + addr + "/datasets")
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetching datasets: %w", err)
	}
	defer resp.Body.Close()
	var payload struct {
		Datasets []queryd.Meta `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, fmt.Errorf("loadgen: decoding datasets: %w", err)
	}
	if len(payload.Datasets) == 0 {
		return nil, fmt.Errorf("loadgen: server has no datasets")
	}
	return payload.Datasets, nil
}

// serverStats is the /stats slice the load harness compares across a run.
type serverStats struct {
	Cache   queryd.CacheStats `json:"cache"`
	Tenants []json.RawMessage `json:"tenants"`
}

// fetchServerStats reads the cumulative cache counters.
func fetchServerStats(addr string) (serverStats, error) {
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return serverStats{}, fmt.Errorf("loadgen: fetching stats: %w", err)
	}
	defer resp.Body.Close()
	var payload serverStats
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return serverStats{}, fmt.Errorf("loadgen: decoding stats: %w", err)
	}
	return payload, nil
}

// slowlogStats is the /debug/slowlog slice the harness diffs across a
// run.
type slowlogStats struct {
	Observed uint64 `json:"observed"`
	Slow     uint64 `json:"slow"`
}

// fetchSlowlog reads the server's cumulative slow-query-log counters.
func fetchSlowlog(addr string) (slowlogStats, error) {
	resp, err := http.Get("http://" + addr + "/debug/slowlog")
	if err != nil {
		return slowlogStats{}, fmt.Errorf("loadgen: fetching slowlog: %w", err)
	}
	defer resp.Body.Close()
	var payload slowlogStats
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return slowlogStats{}, fmt.Errorf("loadgen: decoding slowlog: %w", err)
	}
	return payload, nil
}

// q builds a /query body.
func q(fields map[string]any) json.RawMessage {
	data, err := json.Marshal(fields)
	if err != nil {
		panic(err)
	}
	return data
}

// DefaultMix builds the standard serving mix for one dataset: mostly
// cheap predicated aggregates, some group-bys, and an occasional graph
// kernel — the interleaved multi-tenant shape the adaptivity loop was
// built for.
func DefaultMix(m queryd.Meta) []QuerySpec {
	var mix []QuerySpec
	if m.Rows > 0 {
		mix = append(mix,
			QuerySpec{Name: "agg-sum", Weight: 6, Body: q(map[string]any{
				"dataset": m.Name, "op": "aggregate", "agg": "sum", "column": "amount",
				"where": []map[string]any{{"column": "region", "op": "<", "value": 8}},
			})},
			QuerySpec{Name: "agg-count", Weight: 4, Body: q(map[string]any{
				"dataset": m.Name, "op": "aggregate", "agg": "count", "column": "amount",
				"where": []map[string]any{{"column": "flag", "op": "=", "value": 1}},
			})},
			QuerySpec{Name: "agg-max", Weight: 2, Body: q(map[string]any{
				"dataset": m.Name, "op": "aggregate", "agg": "max", "column": "amount",
			})},
			QuerySpec{Name: "groupby", Weight: 3, Body: q(map[string]any{
				"dataset": m.Name, "op": "groupby", "key": "region", "agg": "sum", "column": "amount",
				"where": []map[string]any{{"column": "flag", "op": "=", "value": 1}},
			})},
		)
	}
	if m.Vertices > 0 {
		mix = append(mix,
			QuerySpec{Name: "degree", Weight: 2, Body: q(map[string]any{
				"dataset": m.Name, "op": "degree",
			})},
			QuerySpec{Name: "bfs", Weight: 1, Body: q(map[string]any{
				"dataset": m.Name, "op": "bfs", "source": 0,
			})},
			QuerySpec{Name: "pagerank", Weight: 1, Body: q(map[string]any{
				"dataset": m.Name, "op": "pagerank", "iters": 5, "priority": -1,
			})},
		)
	}
	return mix
}

// TableOnly filters a mix down to table-scan plans (aggregate/groupby) by
// inspecting each body's op field — the shape the coalescing smoke phase
// drives so every request is a table scan.
func TableOnly(mix []QuerySpec) []QuerySpec {
	var out []QuerySpec
	for _, s := range mix {
		var body struct {
			Op string `json:"op"`
		}
		if json.Unmarshal(s.Body, &body) == nil && (body.Op == "aggregate" || body.Op == "groupby") {
			out = append(out, s)
		}
	}
	return out
}

// splitmix64 is the standard 64-bit finalizer used to derive per-client
// seed streams: adjacent raw seeds fed straight into math/rand produce
// visibly correlated pick sequences, while splitmix64(seed+i*gamma) gives
// every client an independent-looking stream from one user-facing seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// streamSeed derives the RNG seed for one numbered stream of a run.
func streamSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed) + (stream+1)*0x9E3779B97F4A7C15))
}

// picker selects mix entries by weight.
type picker struct {
	mix    []QuerySpec
	bounds []int
	total  int
}

func newPicker(mix []QuerySpec) (*picker, error) {
	p := &picker{mix: mix}
	for _, s := range mix {
		if s.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: spec %q has non-positive weight", s.Name)
		}
		p.total += s.Weight
		p.bounds = append(p.bounds, p.total)
	}
	if p.total == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	return p, nil
}

func (p *picker) pick(rng *rand.Rand) int {
	n := rng.Intn(p.total)
	for i, b := range p.bounds {
		if n < b {
			return i
		}
	}
	return len(p.mix) - 1
}

// withTenant returns body with the tenant field set. Setup-time only —
// the hot path indexes pre-built bodies.
func withTenant(body json.RawMessage, tenant string) json.RawMessage {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	m["tenant"] = tenant
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// Run executes the load run.
func Run(opts Options) (*Report, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive duration")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	mix := opts.Mix
	if len(mix) == 0 {
		metas, err := FetchMeta(opts.Addr)
		if err != nil {
			return nil, err
		}
		mix = DefaultMix(metas[0])
	}
	if opts.AggOnly {
		mix = TableOnly(mix)
		if len(mix) == 0 {
			return nil, fmt.Errorf("loadgen: AggOnly left no table-scan specs in the mix")
		}
	}
	pk, err := newPicker(mix)
	if err != nil {
		return nil, err
	}

	client := &http.Client{
		Timeout: opts.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        opts.Concurrency * 2,
			MaxIdleConnsPerHost: opts.Concurrency * 2,
		},
	}
	url := "http://" + opts.Addr + "/query"

	var (
		hist      obs.Histogram
		sent      atomic.Uint64
		ok        atomic.Uint64
		rejected  atomic.Uint64
		other4xx  atomic.Uint64
		errs5xx   atomic.Uint64
		transport atomic.Uint64
		dropped   atomic.Uint64
		inflight  atomic.Int64
		maxInFl   atomic.Int64
		tenantSeq atomic.Uint64
	)
	// One lock-free histogram per plan type, pre-created before workers
	// start so the hot path only reads the map (concurrent map reads are
	// safe; obs.Histogram.Observe is atomic).
	opHists := make(map[string]*obs.Histogram, len(mix))
	for i := range mix {
		if _, dup := opHists[mix[i].Name]; !dup {
			opHists[mix[i].Name] = &obs.Histogram{}
		}
	}
	// Tenant fan-out: bodies[t][i] is spec i stamped with tenant t's
	// identity; requests round-robin over tenants. One histogram and one
	// success counter per tenant back the client-side breakdown.
	nTenants := opts.Tenants
	if nTenants < 1 {
		nTenants = 1
	}
	var tenantBodies [][]json.RawMessage
	var tenantHists []*obs.Histogram
	var tenantOK []atomic.Uint64
	if nTenants > 1 {
		tenantBodies = make([][]json.RawMessage, nTenants)
		tenantHists = make([]*obs.Histogram, nTenants)
		tenantOK = make([]atomic.Uint64, nTenants)
		for t := 0; t < nTenants; t++ {
			name := fmt.Sprintf("tenant-%d", t)
			tenantBodies[t] = make([]json.RawMessage, len(mix))
			for i := range mix {
				tenantBodies[t][i] = withTenant(mix[i].Body, name)
			}
			tenantHists[t] = &obs.Histogram{}
		}
	}

	issue := func(idx int) {
		cur := inflight.Add(1)
		for {
			prev := maxInFl.Load()
			if cur <= prev || maxInFl.CompareAndSwap(prev, cur) {
				break
			}
		}
		defer inflight.Add(-1)

		spec := &mix[idx]
		body := spec.Body
		tenant := -1
		if nTenants > 1 {
			tenant = int(tenantSeq.Add(1) % uint64(nTenants))
			body = tenantBodies[tenant][idx]
		}
		sent.Add(1)
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			transport.Add(1)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		hist.ObserveSince(start)
		switch {
		case resp.StatusCode == http.StatusOK:
			ok.Add(1)
			opHists[spec.Name].ObserveSince(start)
			if tenant >= 0 {
				tenantOK[tenant].Add(1)
				tenantHists[tenant].ObserveSince(start)
			}
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected.Add(1)
		case resp.StatusCode >= 500:
			errs5xx.Add(1)
		default:
			other4xx.Add(1)
		}
	}

	// Cache and slow-query-log counters are cumulative on the server;
	// snapshot before and after so the report carries this run's delta. A
	// fetch failure only zeroes those fields, never fails the run.
	statsBefore, statsErr := fetchServerStats(opts.Addr)
	slowBefore, slowErr := fetchSlowlog(opts.Addr)

	begin := time.Now()
	deadline := begin.Add(opts.Duration)
	var wg sync.WaitGroup

	if opts.Rate > 0 {
		// Open loop: one goroutine paces Poisson arrivals; each arrival
		// dispatches unless the outstanding cap is hit. Gaps and picks use
		// separate seed streams so changing the mix never perturbs the
		// arrival process of a seeded run.
		gapRNG := rand.New(rand.NewSource(streamSeed(opts.Seed, 0)))
		pickRNG := rand.New(rand.NewSource(streamSeed(opts.Seed, 1)))
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			gap := time.Duration(gapRNG.ExpFloat64() / opts.Rate * float64(time.Second))
			time.Sleep(gap)
			if !time.Now().Before(deadline) {
				break
			}
			if int(inflight.Load()) >= opts.Concurrency {
				dropped.Add(1)
				continue
			}
			idx := pk.pick(pickRNG)
			wg.Add(1)
			go func() {
				defer wg.Done()
				issue(idx)
			}()
		}
	} else {
		// Closed loop: Concurrency workers back-to-back, each with its own
		// derived seed stream.
		for c := 0; c < opts.Concurrency; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for time.Now().Before(deadline) {
					issue(pk.pick(rng))
				}
			}(streamSeed(opts.Seed, uint64(c)+2))
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)

	snap := hist.Snapshot()
	mode := "closed-loop"
	if opts.Rate > 0 {
		mode = fmt.Sprintf("open-loop (%.0f/s Poisson)", opts.Rate)
	}
	rep := &Report{
		Addr:        opts.Addr,
		Mode:        mode,
		DurationSec: elapsed.Seconds(),
		Concurrency: opts.Concurrency,
		RateTarget:  opts.Rate,
		Sent:        sent.Load(),
		OK:          ok.Load(),
		Rejected:    rejected.Load(),
		Other4xx:    other4xx.Load(),
		Errors5xx:   errs5xx.Load(),
		Transport:   transport.Load(),
		Dropped:     dropped.Load(),
		QPS:         float64(ok.Load()) / elapsed.Seconds(),
		MaxInFlight: int(maxInFl.Load()),
		PerOp:       make(map[string]OpLatency, len(opHists)),
	}
	if snap.Count > 0 {
		rep.P50MS = snap.Quantile(0.50) / 1e6
		rep.P95MS = snap.Quantile(0.95) / 1e6
		rep.P99MS = snap.Quantile(0.99) / 1e6
	}
	for name, h := range opHists {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		rep.PerOp[name] = OpLatency{
			Count: s.Count,
			P50MS: s.Quantile(0.50) / 1e6,
			P95MS: s.Quantile(0.95) / 1e6,
			P99MS: s.Quantile(0.99) / 1e6,
		}
	}
	if nTenants > 1 {
		rep.PerTenant = make(map[string]TenantLatency, nTenants)
		for t := 0; t < nTenants; t++ {
			s := tenantHists[t].Snapshot()
			if s.Count == 0 {
				continue
			}
			rep.PerTenant[fmt.Sprintf("tenant-%d", t)] = TenantLatency{
				Count: tenantOK[t].Load(),
				QPS:   float64(tenantOK[t].Load()) / elapsed.Seconds(),
				P50MS: s.Quantile(0.50) / 1e6,
				P95MS: s.Quantile(0.95) / 1e6,
				P99MS: s.Quantile(0.99) / 1e6,
			}
		}
	}
	if statsErr == nil {
		if statsAfter, err := fetchServerStats(opts.Addr); err == nil {
			rep.CacheHits = statsAfter.Cache.Hits - statsBefore.Cache.Hits
			rep.CacheMisses = statsAfter.Cache.Misses - statsBefore.Cache.Misses
			if total := rep.CacheHits + rep.CacheMisses; total > 0 {
				rep.CacheHitRate = float64(rep.CacheHits) / float64(total)
			}
			rep.Coalesced = statsAfter.Cache.Coalesced - statsBefore.Cache.Coalesced
			rep.TenantSeries = len(statsAfter.Tenants)
		}
	}
	if slowErr == nil {
		if slowAfter, err := fetchSlowlog(opts.Addr); err == nil {
			rep.SlowlogObserved = slowAfter.Observed - slowBefore.Observed
			rep.SlowlogSlow = slowAfter.Slow - slowBefore.Slow
		}
	}
	if math.IsNaN(rep.QPS) || math.IsInf(rep.QPS, 0) {
		rep.QPS = 0
	}
	return rep, nil
}

// SpotCheck issues deterministic queries and verifies them against the
// dataset's build-time invariants: sum(column) matches the catalog
// checksum, unpredicated count matches the row count, and the degree sum
// equals twice the edge count. Retries once per query on 429 — the spot
// check may run while load is saturating admission.
func SpotCheck(addr string) error {
	metas, err := FetchMeta(addr)
	if err != nil {
		return err
	}
	m := metas[0]
	post := func(body json.RawMessage) (map[string]json.RawMessage, error) {
		for attempt := 0; ; attempt++ {
			resp, err := http.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode == http.StatusTooManyRequests && attempt < 20 {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("loadgen: spot check got %d: %s", resp.StatusCode, data)
			}
			var env struct {
				Result map[string]json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(data, &env); err != nil {
				return nil, err
			}
			return env.Result, nil
		}
	}
	asUint := func(res map[string]json.RawMessage, field string) (uint64, error) {
		raw, okf := res[field]
		if !okf {
			return 0, fmt.Errorf("loadgen: result missing %q", field)
		}
		var v uint64
		err := json.Unmarshal(raw, &v)
		return v, err
	}

	if m.Rows > 0 {
		for _, col := range m.Columns {
			res, err := post(q(map[string]any{
				"dataset": m.Name, "op": "aggregate", "agg": "sum", "column": col.Name,
			}))
			if err != nil {
				return err
			}
			got, err := asUint(res, "value")
			if err != nil {
				return err
			}
			if got != col.Sum {
				return fmt.Errorf("loadgen: sum(%s) = %d, catalog checksum %d", col.Name, got, col.Sum)
			}
		}
		res, err := post(q(map[string]any{
			"dataset": m.Name, "op": "aggregate", "agg": "count", "column": "amount",
		}))
		if err != nil {
			return err
		}
		got, err := asUint(res, "value")
		if err != nil {
			return err
		}
		if got != m.Rows {
			return fmt.Errorf("loadgen: count = %d, catalog rows %d", got, m.Rows)
		}
	}
	if m.Vertices > 0 {
		res, err := post(q(map[string]any{"dataset": m.Name, "op": "degree"}))
		if err != nil {
			return err
		}
		got, err := asUint(res, "degree_sum")
		if err != nil {
			return err
		}
		if got != 2*m.Edges {
			return fmt.Errorf("loadgen: degree sum = %d, want 2x%d edges", got, m.Edges)
		}
	}
	return nil
}
