package bench

import (
	"fmt"
	"sort"
	"strings"

	"smartarrays/internal/adapt"
	"smartarrays/internal/analytics"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// AdaptCase is one cell of the §6.3 evaluation grid: a benchmark × bit
// count × machine × memory-availability combination.
type AdaptCase struct {
	Name    string
	Machine *machine.Spec
	// Bits is the compression width available to the adaptive policy.
	Bits uint
	// SpaceVariant: 0 = plenty of memory, 1 = no room for uncompressed
	// replicas, 2 = no room for any replicas (the paper evaluates the
	// diagrams under all three assumptions).
	SpaceVariant int
	// workload builds the ground-truth model input for a configuration.
	workload func(p memsim.Placement, socket int, compressed bool) perfmodel.Workload
	// traits are the software characteristics handed to the policy.
	traits adapt.Traits
	// accesses is the total element accesses of the measured run.
	accesses float64
}

// AdaptDecision records the policy's pick versus ground truth for a case.
type AdaptDecision struct {
	Case      string
	Machine   string
	Bits      uint
	Chosen    adapt.Candidate
	ChosenMs  float64
	BestLabel string
	BestMs    float64
	// Correct: the chosen configuration is within tieTolerance of the
	// ground-truth optimum.
	Correct bool
	// RegretPct is how much slower the chosen configuration is than the
	// optimum, in percent.
	RegretPct float64
}

// AdaptReport aggregates the grid (the §6.3 headline numbers).
type AdaptReport struct {
	Decisions []AdaptDecision
	// Cases and Correct count end-to-end decisions.
	Cases, Correct int
	// Step1Cases/Step1Correct evaluate the Figure 13 placement diagrams in
	// isolation: for each case and each compression side, was the selected
	// placement the best placement at that compression level? (The paper's
	// "correct placements were chosen in 62 of the 64 cases".)
	Step1Cases, Step1Correct int
	// Step2Cases/Step2Correct evaluate the compression decision given the
	// step-1 candidates (the paper's 86 of 96).
	Step2Cases, Step2Correct int
	// AvgRegretPct / MedianRegretPct summarize how far wrong picks were.
	AvgRegretPct, MedianRegretPct float64
	// VsBestStaticPct is the improvement of the adaptive policy over the
	// best single static configuration across the grid, in percent.
	VsBestStaticPct float64
	// StaticLabel names that best static configuration.
	StaticLabel string
}

// tieTolerance treats configurations within 2% as equivalent when judging
// correctness (the paper's two step-1 misses were "slightly faster"
// alternatives).
const tieTolerance = 1.02

// adaptConfigs enumerates the configuration space the policy chooses from.
type adaptConfig struct {
	placement  memsim.Placement
	socket     int
	compressed bool
	label      string
}

func adaptConfigSpace() []adaptConfig {
	var out []adaptConfig
	for _, p := range []memsim.Placement{memsim.SingleSocket, memsim.Interleaved, memsim.Replicated} {
		for _, c := range []bool{false, true} {
			label := p.String()
			if c {
				label += " + compression"
			}
			out = append(out, adaptConfig{placement: p, socket: 0, compressed: c, label: label})
		}
	}
	return out
}

// AdaptivityGrid builds the evaluation grid: aggregation (C++ and Java)
// and degree centrality, over the compressible bit counts of Figure 10, on
// both machines, under the three memory-availability assumptions.
func AdaptivityGrid() []AdaptCase {
	var cases []AdaptCase
	scanTraits := adapt.Traits{
		ReadOnly:                         true,
		MostlyReads:                      true,
		MultipleLinearAccessesPerElement: true,
	}
	for _, spec := range Machines() {
		for _, space := range []int{0, 1, 2} {
			for _, bits := range []uint{10, 31, 33, 50, 63} {
				for _, lang := range []Lang{LangCPP, LangJava} {
					lang := lang
					bits := bits
					spec := spec
					cases = append(cases, AdaptCase{
						Name:         fmt.Sprintf("aggregation-%s", lang),
						Machine:      spec,
						Bits:         bits,
						SpaceVariant: space,
						traits:       scanTraits,
						accesses:     2 * PaperAggElements,
						workload: func(p memsim.Placement, socket int, compressed bool) perfmodel.Workload {
							b := uint(64)
							if compressed {
								b = bits
							}
							return AggregationWorkload(AggConfig{
								Machine: spec, Lang: lang, Bits: b, Placement: p, Socket: socket,
							}, PaperAggElements)
						},
					})
				}
				bits := bits
				spec := spec
				cases = append(cases, AdaptCase{
					Name:         "degree-centrality",
					Machine:      spec,
					Bits:         bits,
					SpaceVariant: space,
					traits:       scanTraits,
					accesses:     2 * PaperDegreeVertices,
					workload: func(p memsim.Placement, socket int, compressed bool) perfmodel.Workload {
						layout := graph.Layout{Placement: p, Socket: socket, CompressBegin: compressed}
						shape := analytics.ShapeParams{
							V: PaperDegreeVertices, E: PaperDegreeVertices * PaperDegreeDegree,
							Layout: layout,
						}
						w := analytics.DegreeWorkloadFor(shape)
						if compressed {
							// Ground truth at the case's width, not MinBits.
							w = degreeWorkloadAtBits(shape, bits)
						}
						return w
					},
				})
			}
		}
	}
	return cases
}

// isBestAtLevel reports whether label is (within tolerance) the fastest
// configuration among those with the given compression level present in
// times.
func isBestAtLevel(times map[string]float64, label string, compressed bool) bool {
	chosen, ok := times[label]
	if !ok {
		return false
	}
	best := chosen
	for l, ms := range times {
		if strings.Contains(l, "compression") != compressed {
			continue
		}
		if ms < best {
			best = ms
		}
	}
	return chosen <= best*tieTolerance
}

// step2Correct reports whether Decide picked the faster of the two step-1
// candidates.
func step2Correct(times map[string]float64, chosen, unc, comp adapt.Candidate, compOK bool) bool {
	uncMs, haveUnc := times[unc.String()]
	if !compOK {
		return !chosen.Compressed
	}
	compMs, haveComp := times[comp.String()]
	if !haveUnc || !haveComp {
		return haveUnc != haveComp // only one candidate realizable
	}
	if chosen.Compressed {
		return compMs <= uncMs*tieTolerance
	}
	return uncMs <= compMs*tieTolerance
}

// degreeWorkloadAtBits rebuilds the degree-centrality workload with an
// explicit begin-array width (the grid sweeps widths; MinBits would pin
// it).
func degreeWorkloadAtBits(shape analytics.ShapeParams, bits uint) perfmodel.Workload {
	w := analytics.DegreeWorkloadFor(shape)
	// Scale the two begin-array streams from the natural 64-bit size and
	// re-derive the instruction cost at the explicit width.
	ratio := float64(bits) / 64
	base := analytics.DegreeWorkloadFor(analytics.ShapeParams{V: shape.V, E: shape.E,
		Layout: graph.Layout{Placement: shape.Layout.Placement, Socket: shape.Layout.Socket}})
	w.Streams[0].Bytes = base.Streams[0].Bytes * ratio
	w.Streams[1].Bytes = base.Streams[1].Bytes * ratio
	perVertex := 2*perfmodel.CostStream(bits) + perfmodel.CostInitU64 + 2
	w.Instructions = float64(shape.V) * perVertex
	return w
}

// RunAdaptivity evaluates the §6 policy over the grid against the model's
// ground truth, reproducing the §6.3 statistics. One DecisionEvent per
// grid case is recorded on rec (nil disables recording), enriched with the
// model's ground truth — estimated vs realized cost and the grid optimum —
// so a trace shows exactly why each pick was made and what it cost.
func RunAdaptivity(rec *obs.Recorder) AdaptReport {
	cases := AdaptivityGrid()
	report := AdaptReport{}
	staticTotals := map[string]float64{}
	staticCounts := map[string]int{}
	var adaptiveTotal, optimalTotal float64
	var regrets []float64

	for _, c := range cases {
		// Ground truth: model every configuration.
		bestMs := 0.0
		bestLabel := ""
		times := map[string]float64{}
		for _, cfg := range adaptConfigSpace() {
			if cfg.placement == memsim.Replicated {
				if cfg.compressed && c.SpaceVariant >= 2 {
					continue
				}
				if !cfg.compressed && c.SpaceVariant >= 1 {
					continue
				}
			}
			ms := perfmodel.Solve(c.Machine, c.workload(cfg.placement, cfg.socket, cfg.compressed)).Seconds * 1e3
			times[cfg.label] = ms
			if bestLabel == "" || ms < bestMs {
				bestMs, bestLabel = ms, cfg.label
			}
		}
		for label, ms := range times {
			staticTotals[label] += ms
			staticCounts[label]++
		}

		// The policy's measurement run: uncompressed interleaved.
		meas := perfmodel.Solve(c.Machine, c.workload(memsim.Interleaved, 0, false))
		prof := adapt.ProfileFromResult(c.Machine, meas, adapt.ProfileOpts{
			Accesses:              c.accesses,
			CompressedBits:        c.Bits,
			UncompressedBits:      64,
			SpaceUncompressedRepl: c.SpaceVariant == 0,
			SpaceCompressedRepl:   c.SpaceVariant <= 1,
		})
		// Step-level evaluation. Step 1: each diagram's placement pick vs
		// the best placement at the same compression level.
		tr := c.traits
		uncCand := adapt.SelectUncompressedPlacement(tr, prof)
		report.Step1Cases++
		if isBestAtLevel(times, uncCand.String(), false) {
			report.Step1Correct++
		}
		compCand, compOK := adapt.SelectCompressedPlacement(tr, prof)
		if compOK {
			report.Step1Cases++
			if isBestAtLevel(times, compCand.String(), true) {
				report.Step1Correct++
			}
		}
		// Step 2: given the candidates, was the compression choice right?
		report.Step2Cases++
		chosen, ev := adapt.DecideExplained(c.Machine, c.traits, prof, c.Name)
		if step2Correct(times, chosen, uncCand, compCand, compOK) {
			report.Step2Correct++
		}
		chosenLabel := chosen.String()
		chosenMs, ok := times[chosenLabel]
		if !ok {
			// The policy picked a configuration excluded by the space
			// variant (should not happen; count as a miss at the worst
			// time).
			chosenMs = bestMs * 10
		}
		if rec != nil {
			ev.Bits = c.Bits
			if chosen.PredictedSpeedup > 0 {
				ev.EstimatedMs = meas.Seconds * 1e3 / chosen.PredictedSpeedup
			}
			ev.RealizedMs = chosenMs
			ev.BestMs = bestMs
			ev.BestLabel = bestLabel
			rec.RecordDecision(ev)
		}

		correct := chosenMs <= bestMs*tieTolerance
		regret := (chosenMs/bestMs - 1) * 100
		report.Decisions = append(report.Decisions, AdaptDecision{
			Case: c.Name, Machine: c.Machine.Name, Bits: c.Bits,
			Chosen: chosen, ChosenMs: chosenMs,
			BestLabel: bestLabel, BestMs: bestMs,
			Correct: correct, RegretPct: regret,
		})
		report.Cases++
		if correct {
			report.Correct++
		} else {
			regrets = append(regrets, regret)
		}
		adaptiveTotal += chosenMs
		optimalTotal += bestMs
	}

	if len(regrets) > 0 {
		var sum float64
		for _, r := range regrets {
			sum += r
		}
		report.AvgRegretPct = sum / float64(len(regrets))
		sort.Float64s(regrets)
		report.MedianRegretPct = regrets[len(regrets)/2]
	}

	// Best static configuration: the single config minimizing total time
	// across the grid; only configs valid in every case qualify.
	bestStatic := ""
	var bestStaticTotal float64
	for label, total := range staticTotals {
		if staticCounts[label] != report.Cases {
			continue
		}
		if bestStatic == "" || total < bestStaticTotal {
			bestStatic, bestStaticTotal = label, total
		}
	}
	report.StaticLabel = bestStatic
	if adaptiveTotal > 0 {
		report.VsBestStaticPct = (bestStaticTotal/adaptiveTotal - 1) * 100
	}
	_ = optimalTotal
	return report
}
