// Per-tenant × per-op RED metrics: request rate, error rate, and
// duration histograms, plus SLO burn-rate counters. The registry is a
// two-level structure mirroring histogramSet — an RWMutex map resolves
// (tenant, op) to a series once, then all observation is atomic counter
// bumps and a lock-free Histogram observe, cheap enough to record every
// request (RED metrics must agree with admission counters exactly).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SLOObjective is the availability objective backing the burn-rate
// counters: the share of requests that must be good (non-error and
// under the latency SLO).
const SLOObjective = 0.99

// SLOLatency is the per-request latency objective: a request slower than
// this is SLO-bad.
const SLOLatency = 250 * time.Millisecond

// TenantMetrics is the per-tenant RED registry. The zero value is
// ready to use.
type TenantMetrics struct {
	mu     sync.RWMutex
	series map[tenantOpKey]*TenantOpSeries
}

type tenantOpKey struct {
	tenant string
	op     string
}

// TenantOpSeries is one (tenant, op) series: RED counters, a latency
// histogram, and the SLO good/bad split.
type TenantOpSeries struct {
	tenant, op string
	requests   atomic.Uint64
	errors     atomic.Uint64
	sloBad     atomic.Uint64
	latency    Histogram
}

func (t *TenantMetrics) get(tenant, op string) *TenantOpSeries {
	k := tenantOpKey{tenant: tenant, op: op}
	t.mu.RLock()
	s := t.series[k]
	t.mu.RUnlock()
	if s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s = t.series[k]; s != nil {
		return s
	}
	if t.series == nil {
		t.series = make(map[tenantOpKey]*TenantOpSeries)
	}
	s = &TenantOpSeries{tenant: tenant, op: op}
	t.series[k] = s
	return s
}

// Observe records one finished request. isErr marks server-visible
// failures (4xx/5xx); a request is SLO-bad when it errored or exceeded
// the latency objective.
func (t *TenantMetrics) Observe(tenant, op string, d time.Duration, isErr bool) {
	if t == nil {
		return
	}
	if tenant == "" {
		tenant = "default"
	}
	if op == "" {
		op = "unknown"
	}
	s := t.get(tenant, op)
	s.requests.Add(1)
	s.latency.Observe(uint64(d))
	if isErr {
		s.errors.Add(1)
	}
	if isErr || d > SLOLatency {
		s.sloBad.Add(1)
	}
}

// TenantOpSnapshot is one series' exported state.
type TenantOpSnapshot struct {
	Tenant   string `json:"tenant"`
	Op       string `json:"op"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	SLOBad   uint64 `json:"slo_bad"`
	// BurnRate is the rate at which the series consumes its error
	// budget: (bad share) / (1 - SLOObjective). 1.0 means burning
	// exactly at budget; >1 means the SLO will be violated.
	BurnRate float64           `json:"burn_rate"`
	Latency  HistogramSnapshot `json:"-"`
}

// Snapshot returns every series sorted by tenant then op.
func (t *TenantMetrics) Snapshot() []TenantOpSnapshot {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	series := make([]*TenantOpSeries, 0, len(t.series))
	for _, s := range t.series {
		series = append(series, s)
	}
	t.mu.RUnlock()
	out := make([]TenantOpSnapshot, 0, len(series))
	budget := 1 - SLOObjective
	for _, s := range series {
		snap := TenantOpSnapshot{
			Tenant:   s.tenant,
			Op:       s.op,
			Requests: s.requests.Load(),
			Errors:   s.errors.Load(),
			SLOBad:   s.sloBad.Load(),
			Latency:  s.latency.Snapshot(),
		}
		if snap.Requests > 0 {
			snap.BurnRate = (float64(snap.SLOBad) / float64(snap.Requests)) / budget
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Op < out[j].Op
	})
	return out
}
