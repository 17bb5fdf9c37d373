package adapt

import (
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
)

// This file is the adaptivity engine's observability surface: every
// decision can be exported as a typed obs.DecisionEvent carrying the
// profiled counter inputs, the candidate set the Figure 13 diagrams
// produced, and the §6.2 speedup estimates — the full "why" behind a
// placement/compression pick.

// Record converts the profile into its JSON trace form.
func (p *Profile) Record() obs.ProfileRecord {
	return obs.ProfileRecord{
		MemoryBound:               p.MemoryBound,
		SignificantRandomAccesses: p.SignificantRandomAccesses,
		ExecCurrent:               p.ExecCurrent,
		ExecMax:                   p.ExecMax,
		BWCurrentMemory:           p.BWCurrentMemory,
		BWMaxMemory:               p.BWMaxMemory,
		BWMaxInterconnect:         p.BWMaxInterconnect,
		AccessesPerSec:            p.AccessesPerSec,
		CostPerCompressedAccess:   p.CostPerCompressedAccess,
		CompressionRatio:          p.CompressionRatio,
		ElemBytes:                 p.ElemBytes,
		SpaceUncompressedRepl:     p.SpaceForUncompressedReplication,
		SpaceCompressedRepl:       p.SpaceForCompressedReplication,
	}
}

// candidateRecord converts a step-1 candidate into its trace form.
func candidateRecord(c Candidate, admissible bool) obs.CandidateRecord {
	return obs.CandidateRecord{
		Placement:        c.Placement.String(),
		Compressed:       c.Compressed,
		Admissible:       admissible,
		Reason:           c.Reason,
		PredictedSpeedup: c.PredictedSpeedup,
	}
}

// DecideExplained runs Decide and additionally returns the decision event
// describing it: the profile inputs, both step-1 candidates (including an
// inadmissible compression candidate with its rejection reason), and the
// chosen configuration. The caller may enrich the event with realized
// costs before recording it.
func DecideExplained(spec *machine.Spec, tr Traits, p *Profile, name string) (Candidate, obs.DecisionEvent) {
	chosen, unc, comp, compOK := decide(spec, tr, p)
	ev := obs.DecisionEvent{
		Name:    name,
		Machine: spec.Name,
		Profile: p.Record(),
		Candidates: []obs.CandidateRecord{
			candidateRecord(unc, true),
			candidateRecord(comp, compOK),
		},
		Chosen:           chosen.String(),
		ChosenCompressed: chosen.Compressed,
		PredictedSpeedup: chosen.PredictedSpeedup,
	}
	return chosen, ev
}
