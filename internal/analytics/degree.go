package analytics

import (
	"fmt"

	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// DegreeCentrality computes, for every vertex, the sum of its out- and
// in-degrees (paper §5.2): two consecutive reads from begin and rbegin are
// subtracted and the sum is stored in the output array, which — as in all
// the paper's experiments — is interleaved regardless of the graph's
// placement.
//
// The returned workload covers one full pass: streaming begin and rbegin
// plus writing the 64-bit output.
func DegreeCentrality(rt *rts.Runtime, g *graph.SmartCSR) (*core.SmartArray, perfmodel.Workload, error) {
	out, err := core.Allocate(rt.Memory(), core.Config{
		Name:      "out-degrees",
		Length:    g.NumVertices,
		Bits:      64,
		Placement: memsim.Interleaved,
	})
	if err != nil {
		return nil, perfmodel.Workload{}, fmt.Errorf("analytics: degree output: %w", err)
	}

	rt.ParallelFor(0, g.NumVertices, 0, func(w *rts.Worker, lo, hi uint64) {
		// Read both begin runs over [lo, hi+1) into flat scratch through
		// one View per array, under the loop's pin — each array decoded
		// exactly once, no per-element callback — then subtract adjacent
		// entries.
		nv := hi - lo
		begins := make([]uint64, nv+1)
		rbegins := make([]uint64, nv+1)
		begin, rbegin := g.Begin.View(w.Socket), g.RBegin.View(w.Socket)
		begin.Read(lo, hi+1, begins)
		rbegin.Read(lo, hi+1, rbegins)
		degrees := begins[:nv] // begins[i] is dead once degree i is computed
		for i := range degrees {
			degrees[i] = (begins[i+1] - begins[i]) + (rbegins[i+1] - rbegins[i])
		}
		out.InitRange(w.Socket, lo, degrees)
	})

	beginBits := g.Begin.Bits()
	perVertexInstr := 2*perfmodel.CostStream(beginBits) + perfmodel.CostInitU64 + 2
	work := perfmodel.Workload{
		Instructions: float64(g.NumVertices) * perVertexInstr,
		Streams: []perfmodel.Stream{
			scanStream(g.Begin, 1),
			scanStream(g.RBegin, 1),
			writeStream(out, 1),
		},
	}
	return out, work, nil
}
