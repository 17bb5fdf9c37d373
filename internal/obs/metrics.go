package obs

import "encoding/json"

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

	// internal accumulators for the means
	sumImbalance float64
	sumGrainEff  float64
}

func (s *LoopSummary) add(ls *LoopStats) {
	s.Loops++
	s.Batches += ls.Batches
	s.Steals += ls.Steals
	s.Iterations += ls.Iterations
	s.sumImbalance += ls.ClaimImbalance
	s.sumGrainEff += ls.GrainEfficiency
	if ls.ClaimImbalance > s.MaxClaimImbalance {
		s.MaxClaimImbalance = ls.ClaimImbalance
	}
	s.MeanClaimImbalance = s.sumImbalance / float64(s.Loops)
	s.MeanGrainEfficiency = s.sumGrainEff / float64(s.Loops)
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

// MarshalJSON keeps the internal accumulators out of the wire format.
func (s LoopSummary) MarshalJSON() ([]byte, error) {
	type wire struct {
		Loops               uint64  `json:"loops"`
		Batches             uint64  `json:"batches"`
		Steals              uint64  `json:"steals"`
		Iterations          uint64  `json:"iterations"`
		MaxClaimImbalance   float64 `json:"maxClaimImbalance"`
		MeanClaimImbalance  float64 `json:"meanClaimImbalance"`
		MeanGrainEfficiency float64 `json:"meanGrainEfficiency"`
	}
	return json.Marshal(wire{
		Loops:               s.Loops,
		Batches:             s.Batches,
		Steals:              s.Steals,
		Iterations:          s.Iterations,
		MaxClaimImbalance:   s.MaxClaimImbalance,
		MeanClaimImbalance:  s.MeanClaimImbalance,
		MeanGrainEfficiency: s.MeanGrainEfficiency,
	})
}

// UnmarshalJSON mirrors MarshalJSON (round-trips the exported fields).
func (s *LoopSummary) UnmarshalJSON(b []byte) error {
	type wire struct {
		Loops               uint64  `json:"loops"`
		Batches             uint64  `json:"batches"`
		Steals              uint64  `json:"steals"`
		Iterations          uint64  `json:"iterations"`
		MaxClaimImbalance   float64 `json:"maxClaimImbalance"`
		MeanClaimImbalance  float64 `json:"meanClaimImbalance"`
		MeanGrainEfficiency float64 `json:"meanGrainEfficiency"`
	}
	var w wire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = LoopSummary{
		Loops:               w.Loops,
		Batches:             w.Batches,
		Steals:              w.Steals,
		Iterations:          w.Iterations,
		MaxClaimImbalance:   w.MaxClaimImbalance,
		MeanClaimImbalance:  w.MeanClaimImbalance,
		MeanGrainEfficiency: w.MeanGrainEfficiency,
		// Rebuild the private mean accumulators from mean × loops, so a
		// summary restored from a report keeps computing correct means on
		// subsequent add() calls instead of restarting the sums at zero.
		sumImbalance: w.MeanClaimImbalance * float64(w.Loops),
		sumGrainEff:  w.MeanGrainEfficiency * float64(w.Loops),
	}
	return nil
}
