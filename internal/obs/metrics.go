package obs

// LoopSummary aggregates the RTS loop statistics over a recorder's
// lifetime — the worker-level health metrics (claim balance, grain
// efficiency) without per-loop detail.
type LoopSummary struct {
	// Loops counts ParallelFor executions; Batches the claims they made.
	Loops   uint64 `json:"loops"`
	Batches uint64 `json:"batches"`
	// Steals counts cross-socket batch steals across all loops.
	Steals uint64 `json:"steals"`
	// Iterations is the total loop iterations scheduled.
	Iterations uint64 `json:"iterations"`
	// MaxClaimImbalance / MeanClaimImbalance summarize per-loop
	// (max-min)/mean worker claim spread.
	MaxClaimImbalance  float64 `json:"maxClaimImbalance"`
	MeanClaimImbalance float64 `json:"meanClaimImbalance"`
	// MeanGrainEfficiency averages per-loop iterations/(batches*grain).
	MeanGrainEfficiency float64 `json:"meanGrainEfficiency"`
}

// addLoop folds one loop into r.loops. The two means divide running sums
// the recorder keeps beside the summary. Caller holds r.mu.
func (r *Recorder) addLoop(ls *LoopStats) {
	s := &r.loops
	s.Loops++
	s.Batches += ls.Batches
	s.Steals += ls.Steals
	s.Iterations += ls.Iterations
	r.loopImbalanceSum += ls.ClaimImbalance
	r.loopGrainEffSum += ls.GrainEfficiency
	if ls.ClaimImbalance > s.MaxClaimImbalance {
		s.MaxClaimImbalance = ls.ClaimImbalance
	}
	s.MeanClaimImbalance = r.loopImbalanceSum / float64(s.Loops)
	s.MeanGrainEfficiency = r.loopGrainEffSum / float64(s.Loops)
}

// Metrics is the registry snapshot: everything the recorder knows,
// aggregated into one JSON-serializable record. It is what the CLIs'
// -metrics-out writes (Flags.Finish).
type Metrics struct {
	// Events/Dropped describe the trace ring's occupancy.
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
	// Loops summarizes RTS scheduling behavior.
	Loops LoopSummary `json:"loops"`
	// Decisions counts adaptivity decision events (single + multi);
	// Drifts counts live-telemetry drift audit events.
	Decisions int `json:"decisions"`
	Drifts    int `json:"drifts,omitempty"`
	// Counters is the most recent counter-fabric snapshot seen, if any.
	Counters []SocketCounters `json:"counters,omitempty"`
	// Histograms are the named latency distributions (loop and span
	// timings), keyed by histogram name.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Metrics snapshots the recorder's aggregates. Safe on nil (zero value).
func (r *Recorder) Metrics() Metrics {
	if r == nil {
		return Metrics{}
	}
	r.mu.Lock()
	m := Metrics{
		Events:    r.total,
		Loops:     r.loops,
		Decisions: r.nDecide,
		Drifts:    r.nDrift,
		// Kept incrementally by Record, so no ring walk here.
		Counters: r.lastCounters,
	}
	if r.total > uint64(len(r.ring)) {
		m.Dropped = r.total - uint64(len(r.ring))
	}
	r.mu.Unlock()
	m.Histograms = r.Histograms()
	return m
}
