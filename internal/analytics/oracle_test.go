package analytics

import (
	"math"

	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/rts"
)

// pageRankScalar is the pre-fast-path implementation — edge-at-a-time
// Gets with a per-edge divide, uniform vertex-count batches. Kept as the
// measured "before" baseline for the fast path's speedup experiments
// (EXPERIMENTS.md) and as a second independent implementation for
// agreement tests: it allocates and seeds its own out-degree and rank
// arrays, element by element, and shares no state with PageRanker.
func pageRankScalar(rt *rts.Runtime, g *graph.SmartCSR, cfg PageRankConfig) ([]float64, int, error) {
	if err := checkPageRankConfig(cfg); err != nil {
		return nil, 0, err
	}
	degBits := cfg.DegreeBits
	if degBits == 0 {
		degBits = 64
	}
	n := g.NumVertices
	layout := g.Layout()
	var arrays []*core.SmartArray
	defer func() {
		for _, a := range arrays {
			a.Free()
		}
	}()
	alloc := func(bits uint) (*core.SmartArray, error) {
		a, err := core.Allocate(rt.Memory(), core.Config{
			Length: n, Bits: bits,
			Placement: layout.Placement, Socket: layout.Socket,
		})
		if err == nil {
			arrays = append(arrays, a)
		}
		return a, err
	}
	outDeg, err := alloc(degBits)
	if err != nil {
		return nil, 0, err
	}
	ranks, err := alloc(64)
	if err != nil {
		return nil, 0, err
	}
	next, err := alloc(64)
	if err != nil {
		return nil, 0, err
	}
	// Uniform rts.DefaultGrain batches are whole bitpack chunks, so no two
	// writers share a packed out-degree word.
	rt.ParallelFor(0, n, rts.DefaultGrain, func(w *rts.Worker, lo, hi uint64) {
		beginRep := g.Begin.GetReplica(w.Socket)
		for v := lo; v < hi; v++ {
			outDeg.Init(w.Socket, v, g.Begin.Get(beginRep, v+1)-g.Begin.Get(beginRep, v))
			ranks.Init(w.Socket, v, math.Float64bits(1/float64(n)))
		}
	})

	base := (1 - cfg.Damping) / float64(n)
	iters := 0
	bounds := rts.WeightedBounds(0, n, rts.DefaultGrain, func(v uint64) uint64 { return v })
	for iter := 0; iter < cfg.MaxIters; iter++ {
		totalDiff := rt.ReduceSumFloat64Bounds(bounds, func(w *rts.Worker, lo, hi uint64) float64 {
			rbeginRep := g.RBegin.GetReplica(w.Socket)
			redgeRep := g.REdge.GetReplica(w.Socket)
			ranksRep := ranks.GetReplica(w.Socket)
			degRep := outDeg.GetReplica(w.Socket)
			var localDiff float64
			ePrev := g.RBegin.Get(rbeginRep, lo)
			for v := lo; v < hi; v++ {
				eEnd := g.RBegin.Get(rbeginRep, v+1)
				var sum float64
				for e := ePrev; e < eEnd; e++ {
					u := g.REdge.Get(redgeRep, e)
					deg := outDeg.Get(degRep, u)
					if deg > 0 {
						sum += math.Float64frombits(ranks.Get(ranksRep, u)) / float64(deg)
					}
				}
				ePrev = eEnd
				newRank := base + cfg.Damping*sum
				localDiff += math.Abs(newRank - math.Float64frombits(ranks.Get(ranksRep, v)))
				next.Init(w.Socket, v, math.Float64bits(newRank))
			}
			return localDiff
		})
		ranks, next = next, ranks
		iters++
		if totalDiff < cfg.Tol {
			break
		}
	}

	out := make([]float64, n)
	rep := ranks.GetReplica(0)
	for v := uint64(0); v < n; v++ {
		out[v] = math.Float64frombits(ranks.Get(rep, v))
	}
	return out, iters, nil
}
