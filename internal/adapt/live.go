package adapt

import (
	"fmt"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// Live re-scoring: the §6 decision was made once, from a one-shot
// profiling run — but the paper's Figure 13 inputs (significant random
// accesses, multiple accesses per element) and the §6.2 cost terms are all
// *measurable*, and the per-array telemetry registry measures them
// continuously. A Monitor re-walks the decision diagrams against the live
// AccessProfile and emits a DecisionDrift audit event whenever the
// observed access pattern would flip the original pick — the feedback
// loop DimmWitted-style per-structure tracking enables and the paper's
// one-shot profiler cannot close.

// MonitorConfig sets up a live re-scoring monitor for one array/workload.
type MonitorConfig struct {
	Spec *machine.Spec
	// Traits are the declared software characteristics; the measured
	// amortization traits (multiple linear/random accesses per element)
	// are overridden by telemetry at every check.
	Traits Traits
	// Base is the profile from the initial measurement run; live signals
	// overlay it.
	Base *Profile
	// Initial is the configuration the §6 pipeline chose from Base.
	Initial Candidate
	// Name labels the workload in drift events.
	Name string
	// CompressedBits/UncompressedBits are the §6.2 cost-term widths
	// (UncompressedBits defaults to 64).
	CompressedBits, UncompressedBits uint
}

// Monitor re-scores a §6 decision against live per-array telemetry.
// Not safe for concurrent Check calls; drive it from the control thread
// between loops.
type Monitor struct {
	cfg  MonitorConfig
	last Candidate
	// checks counts re-scores; drifts counts emitted flips.
	checks, drifts int
}

// NewMonitor creates a monitor holding the initial decision.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.UncompressedBits == 0 {
		cfg.UncompressedBits = 64
	}
	return &Monitor{cfg: cfg, last: cfg.Initial}
}

// Current is the configuration the most recent check selected (the
// initial pick before any drift).
func (m *Monitor) Current() Candidate { return m.last }

// Drifts is how many flips the monitor has emitted.
func (m *Monitor) Drifts() int { return m.drifts }

// liveTraits replaces the declared amortization traits with measured
// ones: an element set read more than once through an access method
// amortizes replica initialization for that method — now a fact from the
// registry, not a programmer promise.
func (m *Monitor) liveTraits(p *obs.AccessProfile) Traits {
	tr := m.cfg.Traits
	if p.Length > 0 {
		linear := p.Access.ScanElems + p.Access.ReduceElems
		tr.MultipleLinearAccessesPerElement = linear > p.Length
		tr.MultipleRandomAccessesPerElement = p.Access.GatherElems > p.Length
	}
	return tr
}

// liveProfile overlays the measured per-array signals on the base
// profile:
//
//   - SignificantRandomAccesses comes from the observed random share
//     (gathers over all reads), replacing the one-shot
//     workload-level estimate;
//   - the §6.2 compressed-access cost is re-weighted by the observed
//     access-method mix: chunk-decoded accesses (scans and reduces)
//     pay the fused decode delta, random accesses pay Function 1's
//     per-call delta — a workload that drifted from scanning to gathering
//     sees its compression cost rise accordingly;
//   - observed predicate selectivity scales the access rate the
//     compression cost multiplies: masked folds skip non-matching chunks,
//     so only the selected fraction pays the per-access decode.
func (m *Monitor) liveProfile(p *obs.AccessProfile) *Profile {
	lp := *m.cfg.Base
	lp.SignificantRandomAccesses = p.RandomShare() > SignificantRandomFraction
	if m.cfg.CompressedBits > 0 {
		cb, ub := m.cfg.CompressedBits, m.cfg.UncompressedBits
		chunkCost := perfmodel.CostReduce(cb) - perfmodel.CostReduce(ub)
		randCost := perfmodel.CostGet(cb) - perfmodel.CostGet(ub)
		if chunkCost < 0 {
			chunkCost = 0
		}
		if randCost < 0 {
			randCost = 0
		}
		chunk, random := p.ChunkDecodeShare(), p.RandomShare()
		if chunk+random > 0 {
			lp.CostPerCompressedAccess = chunk*chunkCost + random*randCost
		}
	}
	if sel, ok := p.Selectivity(); ok {
		lp.AccessesPerSec *= sel
	}
	return &lp
}

// Check re-walks the §6 pipeline against the live profile. When the live
// pick differs from the last one, it returns a drift audit event (nil
// otherwise) and adopts the live pick as current.
func (m *Monitor) Check(p obs.AccessProfile) (Candidate, *obs.DriftEvent) {
	m.checks++
	tr := m.liveTraits(&p)
	lp := m.liveProfile(&p)
	chosen, _, _, _ := decide(m.cfg.Spec, tr, lp)
	if chosen.String() == m.last.String() {
		return chosen, nil
	}
	prev := m.last
	m.last = chosen
	m.drifts++
	ev := &obs.DriftEvent{
		Name:             m.cfg.Name,
		Array:            p.Name,
		Initial:          prev.String(),
		Live:             chosen.String(),
		InitialPredicted: prev.PredictedSpeedup,
		LivePredicted:    chosen.PredictedSpeedup,
		RandomShare:      p.RandomShare(),
		ChunkDecodeShare: p.ChunkDecodeShare(),
		LocalShare:       p.LocalShare(),
		ReadsPerElement:  p.ReadsPerElement(),
		Folds:            p.Folds,
		Reason:           chosen.Reason,
	}
	if sel, ok := p.Selectivity(); ok {
		ev.Selectivity = sel
	}
	return chosen, ev
}

// String summarizes the monitor state for reports.
func (m *Monitor) String() string {
	return fmt.Sprintf("adapt.Monitor{%s: %s, %d checks, %d drifts}",
		m.cfg.Name, m.last.String(), m.checks, m.drifts)
}
