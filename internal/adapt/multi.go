package adapt

import (
	"fmt"
	"sort"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// Multi-array adaptivity. The paper's §6 limitations note: "our adaptivity
// is not yet extended to multiple smart arrays, such as those used in our
// PageRank experiments". This file implements that extension: a joint
// placement decision over a set of arrays with heterogeneous traffic,
// subject to per-socket memory capacity.
//
// The algorithm is coordinate descent with the performance model as the
// objective: start from the flexible all-interleaved configuration, then
// repeatedly sweep the arrays in descending traffic order, re-placing each
// one (among the capacity-feasible, trait-admissible placements) while
// holding the others fixed, until a sweep changes nothing. The model being
// cheap is what makes this practical — the same argument the paper makes
// for profile-driven decisions over exhaustive search.

// ArrayUsage describes one array's role in a workload iteration.
type ArrayUsage struct {
	// Name identifies the array in the decision output.
	Name string
	// PayloadBytes is the size of one copy (the capacity cost).
	PayloadBytes uint64
	// ScanBytes / RandomBytes / WriteBytes are the per-iteration traffic
	// volumes (random already amplified; see perfmodel.RandomReadBytes).
	ScanBytes   float64
	RandomBytes float64
	WriteBytes  float64
	// ReadOnly permits replication (Table 2: replication is only for
	// read-only data).
	ReadOnly bool
}

// MultiDecision is the chosen placement for one array.
type MultiDecision struct {
	Name      string
	Placement memsim.Placement
	Socket    int
}

// String renders the decision.
func (d MultiDecision) String() string {
	if d.Placement == memsim.SingleSocket {
		return fmt.Sprintf("%s: single socket %d", d.Name, d.Socket)
	}
	return fmt.Sprintf("%s: %v", d.Name, d.Placement)
}

// DecideMulti jointly places the arrays on the machine, given the
// workload's total instruction count per iteration and the per-socket
// memory capacity. It returns the decisions (aligned with usages) and the
// modeled result of the chosen configuration, and records one
// MultiDecisionEvent on rec (nil records nothing): the per-array
// placements, the model-solve budget the search spent, and the modeled
// outcome.
func DecideMulti(spec *machine.Spec, capPerSocket uint64, instructions float64, usages []ArrayUsage, rec *obs.Recorder) ([]MultiDecision, perfmodel.Result) {
	ds, res, evals, fits := decideMulti(spec, capPerSocket, instructions, usages)
	if rec != nil {
		ev := obs.MultiDecisionEvent{
			Machine:           spec.Name,
			CapPerSocketBytes: capPerSocket,
			Evaluations:       evals,
			ModeledSeconds:    res.Seconds,
			Bottleneck:        string(res.Bottleneck),
			FitsCapacity:      fits,
		}
		for _, d := range ds {
			ev.Decisions = append(ev.Decisions, obs.MultiArrayDecision{
				Name: d.Name, Placement: d.Placement.String(), Socket: d.Socket,
			})
		}
		rec.RecordMultiDecision(ev)
	}
	return ds, res
}

// decideMulti is DecideMulti's coordinate-descent search; it additionally
// reports how many model evaluations the search spent and whether the
// final configuration fits the capacity budget.
func decideMulti(spec *machine.Spec, capPerSocket uint64, instructions float64, usages []ArrayUsage) ([]MultiDecision, perfmodel.Result, int, bool) {
	n := len(usages)
	decisions := make([]MultiDecision, n)
	for i, u := range usages {
		decisions[i] = MultiDecision{Name: u.Name, Placement: memsim.Interleaved}
	}

	// Sweep order: heaviest traffic first (its placement matters most).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	traffic := func(u ArrayUsage) float64 { return u.ScanBytes + u.RandomBytes + u.WriteBytes }
	sort.Slice(order, func(a, b int) bool {
		return traffic(usages[order[a]]) > traffic(usages[order[b]])
	})

	evaluations := 0
	evaluate := func() perfmodel.Result {
		evaluations++
		return perfmodel.Solve(spec, buildMultiWorkload(instructions, usages, decisions))
	}

	best := evaluate()
	for sweep := 0; sweep < 4; sweep++ {
		improved := false
		for _, i := range order {
			u := usages[i]
			current := decisions[i]
			for _, cand := range candidatePlacements(spec, u) {
				if cand == current {
					continue
				}
				decisions[i] = cand
				if !fitsCapacity(spec, capPerSocket, usages, decisions) {
					continue
				}
				if r := evaluate(); r.Seconds < best.Seconds-1e-15 {
					best = r
					current = cand
					improved = true
				}
			}
			decisions[i] = current
		}
		if !improved {
			break
		}
	}
	if !fitsCapacity(spec, capPerSocket, usages, decisions) {
		// The all-interleaved start itself exceeds capacity: nothing the
		// placement engine can do; report it as-is (the caller must shed
		// data or compress).
		return decisions, best, evaluations, false
	}
	return decisions, best, evaluations, true
}

// candidatePlacements enumerates the placements admissible for the array.
func candidatePlacements(spec *machine.Spec, u ArrayUsage) []MultiDecision {
	cands := []MultiDecision{
		{Name: u.Name, Placement: memsim.Interleaved},
	}
	for s := 0; s < spec.Sockets; s++ {
		cands = append(cands, MultiDecision{Name: u.Name, Placement: memsim.SingleSocket, Socket: s})
	}
	if u.ReadOnly {
		cands = append(cands, MultiDecision{Name: u.Name, Placement: memsim.Replicated})
	}
	return cands
}

// fitsCapacity checks the per-socket memory cost of a joint configuration.
func fitsCapacity(spec *machine.Spec, capPerSocket uint64, usages []ArrayUsage, decisions []MultiDecision) bool {
	perSocket := make([]uint64, spec.Sockets)
	for i, d := range decisions {
		bytes := usages[i].PayloadBytes
		switch d.Placement {
		case memsim.Replicated:
			for s := range perSocket {
				perSocket[s] += bytes
			}
		case memsim.SingleSocket:
			perSocket[d.Socket] += bytes
		default:
			per := bytes / uint64(spec.Sockets)
			for s := range perSocket {
				perSocket[s] += per
			}
		}
	}
	for _, used := range perSocket {
		if used > capPerSocket {
			return false
		}
	}
	return true
}

// buildMultiWorkload assembles the model input for a joint configuration.
func buildMultiWorkload(instructions float64, usages []ArrayUsage, decisions []MultiDecision) perfmodel.Workload {
	w := perfmodel.Workload{Instructions: instructions}
	for i, u := range usages {
		d := decisions[i]
		add := func(kind perfmodel.StreamKind, bytes float64) {
			if bytes > 0 {
				w.Streams = append(w.Streams, perfmodel.Stream{
					Kind: kind, Bytes: bytes, Placement: d.Placement, Socket: d.Socket,
				})
			}
		}
		add(perfmodel.Read, u.ScanBytes)
		add(perfmodel.Read, u.RandomBytes)
		add(perfmodel.Write, u.WriteBytes)
	}
	return w
}
