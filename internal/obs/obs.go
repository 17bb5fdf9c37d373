// Package obs is the observability layer: structured traces, metrics
// snapshots, latency histograms and per-array/per-query profiles for the
// smart-array runtime and its adaptivity engine.
//
// The paper's adaptivity algorithm (§6) is driven entirely by measured
// counters, so *why* a configuration was chosen is exactly as important as
// the choice itself. This package makes those inputs and outcomes
// first-class artifacts:
//
//   - Recorder is a ring-buffered, typed event log. Producers (the RTS,
//     the adaptivity engine, the benchmark harness) record loop
//     statistics, counter snapshots, and decision events; consumers drain
//     them as JSONL traces or aggregate Metrics.
//   - Metrics is a JSON-serializable snapshot of the counter fabric's
//     per-socket aggregates, RTS worker/loop statistics (batches claimed
//     per worker, claim imbalance, grain efficiency), and adaptivity
//     decision outcomes — what the CLIs' -metrics-out writes (Flags).
//
// All Recorder methods are safe on a nil receiver, so instrumented code
// paths need no branches: an un-instrumented run records into nil at zero
// cost beyond the check.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// DefaultRingCapacity bounds a Recorder's event ring when 0 is passed to
// NewRecorder. The ring overwrites the oldest events on wraparound; the
// capacity is sized so a full adaptivity-grid run fits without drops.
const DefaultRingCapacity = 4096

// Recorder collects typed events in a fixed-capacity ring buffer and
// maintains running aggregates for Metrics. It is safe for concurrent use;
// the hot paths that feed it (per-batch claim counting in the RTS) stay in
// worker-private state and only touch the Recorder once per loop, so
// recording does not perturb what the counters measure.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	total   uint64 // events ever recorded (ring index = total % cap)
	loops   LoopSummary
	nDecide int
	nDrift  int

	// loopImbalanceSum and loopGrainEffSum are the running sums behind
	// the two means in loops.
	loopImbalanceSum float64
	loopGrainEffSum  float64

	// lastCounters is the most recent counters snapshot, kept
	// incrementally so Metrics() never has to walk the ring.
	lastCounters []SocketCounters
	// hists is the named latency-histogram table (see histogram.go); it
	// has its own lock, so Observe never contends with Record.
	hists histogramSet
	// tenants is the per-tenant × per-op RED registry (tenantmetrics.go);
	// like hists it is internally synchronized.
	tenants TenantMetrics
}

// Tenants returns the recorder's per-tenant RED registry. Safe on nil
// (returns nil, and all TenantMetrics methods accept a nil receiver).
func (r *Recorder) Tenants() *TenantMetrics {
	if r == nil {
		return nil
	}
	return &r.tenants
}

// NewRecorder creates a recorder whose ring holds capacity events
// (DefaultRingCapacity if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Record appends an event to the ring, overwriting the oldest event when
// full, and folds it into the running aggregates. Safe on nil.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = r.total
	r.ring[r.total%uint64(len(r.ring))] = ev
	r.total++
	switch {
	case ev.Loop != nil:
		r.addLoop(ev.Loop)
	case ev.Decision != nil || ev.MultiDecision != nil:
		r.nDecide++
	case ev.Drift != nil:
		r.nDrift++
	case ev.Counters != nil:
		r.lastCounters = ev.Counters.Sockets
	}
	r.mu.Unlock()
}

// RecordLoop is shorthand for Record(Event{Kind: KindLoop, Loop: &ls}).
func (r *Recorder) RecordLoop(ls LoopStats) {
	r.Record(Event{Kind: KindLoop, Loop: &ls})
}

// RecordDecision is shorthand for recording an adaptivity decision event.
func (r *Recorder) RecordDecision(d DecisionEvent) {
	r.Record(Event{Kind: KindDecision, Decision: &d})
}

// RecordMultiDecision records a joint multi-array placement decision.
func (r *Recorder) RecordMultiDecision(d MultiDecisionEvent) {
	r.Record(Event{Kind: KindMultiDecision, MultiDecision: &d})
}

// RecordDrift records a live-telemetry adaptivity drift audit event.
func (r *Recorder) RecordDrift(d DriftEvent) {
	r.Record(Event{Kind: KindDrift, Drift: &d})
}

// RecordReencode records a live representation-migration audit event.
func (r *Recorder) RecordReencode(e ReencodeEvent) {
	r.Record(Event{Kind: KindReencode, Reencode: &e})
}

// RecordCounters records a counter-fabric snapshot.
func (r *Recorder) RecordCounters(label string, socks []SocketCounters) {
	r.Record(Event{Kind: KindCounters, Counters: &CountersEvent{Label: label, Sockets: socks}})
}

// Len is the number of events currently held (≤ ring capacity). Safe on nil.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	return int(n)
}

// Events returns the retained events oldest-first. Safe on nil (returns nil).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := uint64(len(r.ring))
	n := r.total
	start := uint64(0)
	if n > capacity {
		start = n - capacity
	}
	out := make([]Event, 0, n-start)
	for seq := start; seq < n; seq++ {
		out = append(out, r.ring[seq%capacity])
	}
	return out
}

// WriteTrace writes the retained events as JSON Lines (one event object
// per line), oldest first.
func (r *Recorder) WriteTrace(w io.Writer) error {
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("obs: marshal event %d: %w", ev.Seq, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
