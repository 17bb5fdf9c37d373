package analytics

import (
	"math"

	"smartarrays/internal/graph"
	"smartarrays/internal/rts"
)

// pageRankScalar is the pre-fast-path implementation — edge-at-a-time
// Gets with a per-edge divide, uniform vertex-count batches. Kept as the
// measured "before" baseline for the fast path's speedup experiments
// (EXPERIMENTS.md) and as a second independent implementation for
// agreement tests.
func pageRankScalar(rt *rts.Runtime, g *graph.SmartCSR, cfg PageRankConfig) ([]float64, int, error) {
	if err := checkPageRankConfig(cfg); err != nil {
		return nil, 0, err
	}
	degBits := cfg.DegreeBits
	if degBits == 0 {
		degBits = 64
	}
	n := g.NumVertices
	st, err := allocPageRank(rt, g, degBits, newPRScratches(rt, nil))
	if err != nil {
		return nil, 0, err
	}
	defer st.free()

	base := (1 - cfg.Damping) / float64(n)
	iters := 0
	bounds := rts.WeightedBounds(0, n, rts.DefaultGrain, func(v uint64) uint64 { return v })
	for iter := 0; iter < cfg.MaxIters; iter++ {
		totalDiff := rt.ReduceSumFloat64Bounds(bounds, func(w *rts.Worker, lo, hi uint64) float64 {
			rbeginRep := g.RBegin.GetReplica(w.Socket)
			redgeRep := g.REdge.GetReplica(w.Socket)
			ranksRep := st.ranks.GetReplica(w.Socket)
			degRep := st.outDeg.GetReplica(w.Socket)
			var localDiff float64
			ePrev := g.RBegin.Get(rbeginRep, lo)
			for v := lo; v < hi; v++ {
				eEnd := g.RBegin.Get(rbeginRep, v+1)
				var sum float64
				for e := ePrev; e < eEnd; e++ {
					u := g.REdge.Get(redgeRep, e)
					deg := st.outDeg.Get(degRep, u)
					if deg > 0 {
						sum += math.Float64frombits(st.ranks.Get(ranksRep, u)) / float64(deg)
					}
				}
				ePrev = eEnd
				newRank := base + cfg.Damping*sum
				localDiff += math.Abs(newRank - math.Float64frombits(st.ranks.Get(ranksRep, v)))
				st.next.Init(w.Socket, v, math.Float64bits(newRank))
			}
			return localDiff
		})
		st.ranks, st.next = st.next, st.ranks
		iters++
		if totalDiff < cfg.Tol {
			break
		}
	}

	out := make([]float64, n)
	rep := st.ranks.GetReplica(0)
	for v := uint64(0); v < n; v++ {
		out[v] = math.Float64frombits(st.ranks.Get(rep, v))
	}
	return out, iters, nil
}
