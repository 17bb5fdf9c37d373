package analytics

import (
	"fmt"
	"math"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// PageRankConfig parameterizes PageRank as the paper runs it (§5.2):
// damping 0.85, convergence when the L1 rank difference drops below 1e-3.
type PageRankConfig struct {
	// Damping is the damping factor d (paper: 0.85).
	Damping float64
	// Tol is the convergence threshold on the sum of absolute rank
	// differences between iterations (paper: 1e-3).
	Tol float64
	// MaxIters bounds the iteration count.
	MaxIters int
	// DegreeBits is the width of the out-degrees vertex property array:
	// 64 for the paper's "U"/"32" variants, 22 for "V"/"V+E".
	DegreeBits uint
}

// DefaultPageRankConfig returns the paper's parameters.
func DefaultPageRankConfig() PageRankConfig {
	return PageRankConfig{Damping: 0.85, Tol: 1e-3, MaxIters: 100, DegreeBits: 64}
}

// prState is the property-array set one PageRank run allocates.
type prState struct {
	// outDeg is the out-degrees property at cfg.DegreeBits — the array the
	// paper's "V" variants compress. The iteration itself multiplies by
	// invDeg; outDeg stays allocated (and initialized) for the variant's
	// memory footprint and for property queries.
	outDeg *core.SmartArray
	// invDeg holds math.Float64bits(1/outDeg[v]) (0 for sinks): one divide
	// per vertex per run instead of one per edge.
	invDeg *core.SmartArray
	// ranks/next are the 64-bit rank arrays, swapped each iteration.
	ranks, next *core.SmartArray
	// contrib/contribNext hold rank[v]*invDeg[v], what v hands each
	// out-neighbour: the product is taken once per vertex when the rank is
	// written, so an edge costs one gather. Swapped with ranks/next.
	contrib, contribNext *core.SmartArray
}

func (st *prState) free() {
	for _, a := range []*core.SmartArray{st.outDeg, st.invDeg, st.ranks, st.next, st.contrib, st.contribNext} {
		if a != nil {
			a.Free()
		}
	}
}

// allocPageRank allocates the property arrays with the graph's placement,
// as the paper's placement variations "apply to all arrays except for the
// output array", and seeds them in one parallel pass: the begin array is
// streamed once per batch through core.ReadRange, degrees come from
// adjacent differences, the inverse degrees are computed here — the run's
// only divides — and each array is written with one InitRange per batch.
func allocPageRank(rt *rts.Runtime, g *graph.SmartCSR, degBits uint) (*prState, error) {
	n := g.NumVertices
	layout := g.Layout()
	st := &prState{}
	var err error
	alloc := func(bits uint, name, what string) *core.SmartArray {
		if err != nil {
			return nil
		}
		a, e := core.Allocate(rt.Memory(), core.Config{
			Name:   name,
			Length: n, Bits: bits,
			Placement: layout.Placement, Socket: layout.Socket,
		})
		if e != nil {
			err = fmt.Errorf("analytics: %s: %w", what, e)
		}
		return a
	}
	st.outDeg = alloc(degBits, "out-degrees", "out-degree property")
	st.invDeg = alloc(64, "inv-degrees", "inverse out-degrees")
	st.ranks = alloc(64, "ranks", "ranks")
	st.next = alloc(64, "next-ranks", "next ranks")
	st.contrib = alloc(64, "rank-contribs", "rank contributions")
	st.contribNext = alloc(64, "next-rank-contribs", "next rank contributions")
	if err != nil {
		st.free()
		return nil, err
	}

	rt.ParallelFor(0, n, 0, func(w *rts.Worker, lo, hi uint64) {
		nv := hi - lo
		init := 1 / float64(n)
		begins := make([]uint64, nv+1)
		core.ReadRange(g.Begin, w.Socket, lo, hi+1, begins)
		// One scratch block, four rows: degree, inverse, rank, contribution.
		rows := make([]uint64, 4*nv)
		degs, invs, ranks, contribs := rows[:nv], rows[nv:2*nv], rows[2*nv:3*nv], rows[3*nv:]
		for i := range degs {
			deg := begins[i+1] - begins[i]
			var inv float64
			if deg > 0 {
				inv = 1 / float64(deg)
			}
			degs[i] = deg
			invs[i] = math.Float64bits(inv)
			ranks[i] = math.Float64bits(init)
			contribs[i] = math.Float64bits(init * inv)
		}
		st.outDeg.InitRange(w.Socket, lo, degs)
		st.invDeg.InitRange(w.Socket, lo, invs)
		st.ranks.InitRange(w.Socket, lo, ranks)
		st.contrib.InitRange(w.Socket, lo, contribs)
	})
	return st, nil
}

// prScratch is one worker's iteration scratch: the begin run of the
// current batch, per-vertex partial sums, two per-vertex rows (old rank
// and inverse degree in, next rank and next contribution out — rewritten
// in place), and the edge/gather buffers the streaming kernels fill.
// Sized once per run, reused across batches and iterations; only the
// owning worker touches it.
type prScratch struct {
	begins     []uint64
	sums       []float64
	ranks      []uint64
	contribs   []uint64
	edgeBuf    []uint64
	contribBuf []uint64
}

// prEdgeBufLen is the edge-stream chunk length: a multiple of the bitpack
// chunk so compressed widths decode whole chunks, big enough to amortize
// the emit and gather call overhead, small enough to stay cache-resident
// alongside the gather buffer.
const prEdgeBufLen = 16 * bitpack.ChunkSize

func (sc *prScratch) grow(vertices uint64) {
	if uint64(len(sc.begins)) < vertices+1 {
		sc.begins = make([]uint64, vertices+1)
		sc.sums = make([]float64, vertices)
		sc.ranks = make([]uint64, vertices)
		sc.contribs = make([]uint64, vertices)
	}
	if sc.edgeBuf == nil {
		sc.edgeBuf = make([]uint64, prEdgeBufLen)
		sc.contribBuf = make([]uint64, prEdgeBufLen)
	}
}

// PageRank runs pull-based PageRank over the smart-array graph (paper
// §5.2) on the graph fast path. Per-edge work is done once per edge: each
// batch streams its reverse-begin run and its reverse-edge runs through
// the chunk-decode kernels (core.ReadRange / core.StreamRange),
// batch-gathers ONE property per edge — the neighbours' contributions
// rank*invDeg (core.Gather) — and adds each vertex's in-edge segment of a
// decoded run in a counted loop. Per-vertex work is done once per vertex:
// the batch's old ranks and inverse degrees are read with core.ReadRange,
// the new rank and its contribution are computed side by side, and each is
// written with one InitRange per batch. Vertex ranges are split by
// in-degree (rts.WeightedBounds), so power-law hubs do not serialize their
// batch; enable rt.SetStealing for cross-socket balance on skewed graphs.
//
// Ranks are double-precision values stored bit-cast in 64-bit smart
// arrays; the out-degree property is a smart array at cfg.DegreeBits. All
// property arrays inherit the graph's placement.
//
// It returns the converged ranks, the iteration count, and a workload
// descriptor covering the whole run (all iterations).
func PageRank(rt *rts.Runtime, g *graph.SmartCSR, cfg PageRankConfig) ([]float64, int, perfmodel.Workload, error) {
	if err := checkPageRankConfig(cfg); err != nil {
		return nil, 0, perfmodel.Workload{}, err
	}
	degBits := cfg.DegreeBits
	if degBits == 0 {
		degBits = 64
	}
	n := g.NumVertices
	st, err := allocPageRank(rt, g, degBits)
	if err != nil {
		return nil, 0, perfmodel.Workload{}, err
	}
	defer st.free()

	// Degree-aware batch boundaries: weight vertex v as 1 + in-degree so
	// each batch carries about the same edge traffic. Computed once — the
	// graph is immutable across iterations.
	rbeginRep0 := g.RBegin.GetReplica(0)
	totalWeight := n + g.NumEdges
	nbTarget := (n + rts.DefaultGrain - 1) / rts.DefaultGrain
	grainWeight := (totalWeight + nbTarget - 1) / nbTarget
	bounds := rts.WeightedBounds(0, n, grainWeight, func(v uint64) uint64 {
		return g.RBegin.Get(rbeginRep0, v) + v
	})

	scratch := make([]prScratch, len(rt.Workers()))
	base := (1 - cfg.Damping) / float64(n)
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Per-worker float partials, combined once per worker after the
		// loop — no mutex (or atomic) per batch on the diff accumulation.
		totalDiff := rt.ReduceSumFloat64Bounds(bounds, func(w *rts.Worker, lo, hi uint64) float64 {
			sc := &scratch[w.ID]
			nv := hi - lo
			sc.grow(nv)
			begins := sc.begins[:nv+1]
			core.ReadRange(g.RBegin, w.Socket, lo, hi+1, begins)
			sums := sc.sums[:nv]
			for i := range sums {
				sums[i] = 0
			}
			if eLo, eHi := begins[0], begins[nv]; eLo < eHi {
				vi := 0 // vertex whose in-edge segment the stream is inside
				core.StreamRange(g.REdge, w.Socket, eLo, eHi, sc.edgeBuf, func(eBase uint64, srcs []uint64) {
					cb := sc.contribBuf[:len(srcs)]
					core.Gather(st.contrib, w.Socket, srcs, cb)
					runEnd := eBase + uint64(len(srcs))
					for e := eBase; e < runEnd; {
						for e >= begins[vi+1] {
							vi++ // past finished (and in-degree-0) vertices
						}
						segEnd := min(begins[vi+1], runEnd)
						sum := sums[vi]
						for _, c := range cb[e-eBase : segEnd-eBase] {
							sum += math.Float64frombits(c)
						}
						sums[vi] = sum
						e = segEnd
					}
				})
			}
			// Both rows turn over in place: old rank -> next rank, inverse
			// degree -> next contribution.
			ranks, contribs := sc.ranks[:nv], sc.contribs[:nv]
			core.ReadRange(st.ranks, w.Socket, lo, hi, ranks)
			core.ReadRange(st.invDeg, w.Socket, lo, hi, contribs)
			var localDiff float64
			for i, sum := range sums {
				newRank := base + cfg.Damping*sum
				localDiff += math.Abs(newRank - math.Float64frombits(ranks[i]))
				ranks[i] = math.Float64bits(newRank)
				contribs[i] = math.Float64bits(newRank * math.Float64frombits(contribs[i]))
			}
			st.next.InitRange(w.Socket, lo, ranks)
			st.contribNext.InitRange(w.Socket, lo, contribs)
			return localDiff
		})
		st.ranks, st.next = st.next, st.ranks
		st.contrib, st.contribNext = st.contribNext, st.contrib
		iters++
		if totalDiff < cfg.Tol {
			break
		}
	}

	out := make([]float64, n)
	var buf [rts.DefaultGrain]uint64
	for lo := uint64(0); lo < n; lo += uint64(len(buf)) {
		hi := min(lo+uint64(len(buf)), n)
		core.ReadRange(st.ranks, 0, lo, hi, buf[:])
		for i, bits := range buf[:hi-lo] {
			out[lo+uint64(i)] = math.Float64frombits(bits)
		}
	}

	work := pageRankWorkload(rt, g, st, iters)
	return out, iters, work, nil
}

func checkPageRankConfig(cfg PageRankConfig) error {
	if cfg.Damping <= 0 || cfg.Damping >= 1 {
		return fmt.Errorf("analytics: damping %v out of (0,1)", cfg.Damping)
	}
	if cfg.MaxIters <= 0 || cfg.Tol <= 0 {
		return fmt.Errorf("analytics: bad iteration bounds (MaxIters=%d, Tol=%v)", cfg.MaxIters, cfg.Tol)
	}
	return nil
}

// pageRankWorkload builds the model descriptor for `iters` PageRank
// iterations on the fast path: per iteration the algorithm streams rbegin
// and redge once through the chunk-decode kernels, batch-gathers one
// contribution per edge (semi-random, power-law locality), and per vertex
// reads the old rank and the inverse degree and writes the next rank and
// the next contribution.
func pageRankWorkload(rt *rts.Runtime, g *graph.SmartCSR, st *prState, iters int) perfmodel.Workload {
	llc := rt.Spec().LLCMB * 1e6
	it := float64(iters)
	e := float64(g.NumEdges)
	v := float64(g.NumVertices)

	perEdge := perfmodel.CostStream(g.REdge.Bits()) + // stream the edge
		perfmodel.CostGather(64) + // contribution gather
		1 // accumulate
	perVertex := perfmodel.CostStream(g.RBegin.Bits()) + // stream the begin entry
		2*perfmodel.CostStream(64) + 2*perfmodel.CostInit(64) + // rank + inverse in, rank + contribution out
		9 // damping, diff, the rank*inverse multiply

	return perfmodel.Workload{
		Instructions: it * (e*perEdge + v*perVertex),
		Streams: []perfmodel.Stream{
			scanStream(g.RBegin, it),
			scanStream(g.REdge, it),
			randomStream(st.contrib, it*e, llc, perfmodel.PowerLawLocalityBoost),
			scanStream(st.ranks, 2*it), // old rank + inverse degree (same shape)
			writeStream(st.next, 2*it), // next rank + next contribution
		},
	}
}

// PageRankRef is the sequential reference implementation over a plain CSR,
// used by tests and by the "original" (no smart arrays) variant of the
// paper's Figure 12. Like the smart-array fast path it multiplies by a
// precomputed inverse out-degree and rounds the product before adding it
// (the fast path stores it; the conversion here keeps a compiler from
// fusing multiply and add) — the same rounding at every step, so the two
// implementations agree bit-for-bit per vertex, not just within tolerance.
func PageRankRef(g *graph.CSR, cfg PageRankConfig) ([]float64, int) {
	n := g.NumVertices
	ranks := make([]float64, n)
	next := make([]float64, n)
	inv := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
		if d := g.OutDegree(uint32(v)); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	base := (1 - cfg.Damping) / float64(n)
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		var diff float64
		for v := uint64(0); v < n; v++ {
			var sum float64
			for _, u := range g.InNeighbors(uint32(v)) {
				sum += float64(ranks[u] * inv[u])
			}
			next[v] = base + cfg.Damping*sum
			diff += math.Abs(next[v] - ranks[v])
		}
		ranks, next = next, ranks
		iters++
		if diff < cfg.Tol {
			break
		}
	}
	return ranks, iters
}
