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
	// written, so an edge costs one 64-bit read. Swapped with ranks/next.
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
// The batches are uniform rts.DefaultGrain ranges, whole bitpack chunks,
// so no two writers share a packed word of the out-degrees at a width
// below 64. The rows are the per-worker scratch the iterations reuse.
func allocPageRank(rt *rts.Runtime, g *graph.SmartCSR, degBits uint, scratch *prScratches) (*prState, error) {
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

	init := 1 / float64(n)
	rt.ParallelFor(0, n, rts.DefaultGrain, func(w *rts.Worker, lo, hi uint64) {
		sc := scratch.of(w)
		nv := hi - lo
		begins := sc.begins[:nv+1]
		core.ReadRange(g.Begin, w.Socket, lo, hi+1, begins)
		// Both rows turn over in place once written out: degree -> rank,
		// inverse degree -> contribution.
		ranks, contribs := sc.ranks[:nv], sc.contribs[:nv]
		for i := range ranks {
			deg := begins[i+1] - begins[i]
			var inv float64
			if deg > 0 {
				inv = 1 / float64(deg)
			}
			ranks[i] = deg
			contribs[i] = math.Float64bits(inv)
		}
		st.outDeg.InitRange(w.Socket, lo, ranks)
		st.invDeg.InitRange(w.Socket, lo, contribs)
		for i := range ranks {
			ranks[i] = math.Float64bits(init)
			contribs[i] = math.Float64bits(init * math.Float64frombits(contribs[i]))
		}
		st.ranks.InitRange(w.Socket, lo, ranks)
		st.contrib.InitRange(w.Socket, lo, contribs)
	})
	return st, nil
}

// prScratch is one worker's scratch: the begin run of the current batch,
// per-vertex partial sums, two per-vertex rows (old rank and inverse
// degree in, next rank and next contribution out — rewritten in place),
// and the buffer the edge stream decodes into. Only the owning worker
// touches it.
type prScratch struct {
	begins   []uint64
	sums     []float64
	ranks    []uint64
	contribs []uint64
	edgeBuf  []uint64
}

// prEdgeBufLen is the edge-stream chunk length: a multiple of the bitpack
// chunk so compressed widths decode whole chunks, big enough to amortize
// the emit call, small enough to stay cache-resident.
const prEdgeBufLen = 16 * bitpack.ChunkSize

// prScratches is one run's per-worker scratch, shared by the seeding pass
// (uniform rts.DefaultGrain batches) and every iteration (the run's
// degree-weighted bounds).
type prScratches struct {
	maxBatch uint64 // vertices in the largest batch of either
	workers  []prScratch
}

// newPRScratches sizes one run's scratch for rt's workers, the seeding
// batches and the iterations' bounds; it allocates no rows yet.
func newPRScratches(rt *rts.Runtime, bounds []uint64) *prScratches {
	p := &prScratches{maxBatch: rts.DefaultGrain, workers: make([]prScratch, len(rt.Workers()))}
	for i := 1; i < len(bounds); i++ {
		p.maxBatch = max(p.maxBatch, bounds[i]-bounds[i-1])
	}
	return p
}

// of returns w's scratch. A worker's first batch of the run allocates it
// for the largest batch, so no later batch regrows it, and a worker that
// never claims a batch allocates nothing.
func (p *prScratches) of(w *rts.Worker) *prScratch {
	sc := &p.workers[w.ID]
	if sc.edgeBuf == nil {
		*sc = prScratch{
			begins:   make([]uint64, p.maxBatch+1),
			sums:     make([]float64, p.maxBatch),
			ranks:    make([]uint64, p.maxBatch),
			contribs: make([]uint64, p.maxBatch),
			edgeBuf:  make([]uint64, prEdgeBufLen),
		}
	}
	return sc
}

// contribWords returns the words of a contribution array's snapshot for a
// reader on socket, cut to its length, so that indexing them with a vertex
// id bounds-checks the id against the array and not against the chunk
// padding of its payload. PageRank allocates the contributions bit-packed
// at 64 bits and never re-encodes them, so a word is an element; any other
// layout is a broken invariant, not a slower path.
func contribWords(a *core.SmartArray, socket int) []uint64 {
	v := a.View(socket)
	words, bits, ok := v.Packed()
	if !ok || bits != 64 {
		panic("analytics: PageRank contributions are not bit-packed at 64 bits")
	}
	return words[:a.Length()]
}

// PageRank runs pull-based PageRank over the smart-array graph (paper
// §5.2) on the graph fast path. Per-edge work is one pass over each
// decoded edge run: each batch streams its reverse-begin run and its
// reverse-edge runs through the chunk-decode kernels (core.ReadRange /
// core.StreamRange) and, for each vertex's in-edge segment of a run, adds
// the neighbours' contributions rank*invDeg in a counted loop that reads
// each one where it is summed — straight from contrib's 64-bit payload
// words, through the View every width-specialised reader uses. Per-vertex
// work is done once per vertex: the batch's old ranks and inverse degrees
// are read with core.ReadRange, the new rank and its contribution are
// computed side by side, and each is written with one InitRange per
// batch. Vertex ranges are split by in-degree (rts.WeightedBounds), so
// power-law hubs do not serialize their batch; enable rt.SetStealing for
// cross-socket balance on skewed graphs.
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

	// Degree-aware batch boundaries: weight vertex v as 1 + in-degree so
	// each batch carries about the same edge traffic. Computed once — the
	// graph is immutable across iterations — and before the seeding pass,
	// so one scratch size serves the whole run.
	rbeginRep0 := g.RBegin.GetReplica(0)
	totalWeight := n + g.NumEdges
	nbTarget := (n + rts.DefaultGrain - 1) / rts.DefaultGrain
	grainWeight := (totalWeight + nbTarget - 1) / nbTarget
	bounds := rts.WeightedBounds(0, n, grainWeight, func(v uint64) uint64 {
		return g.RBegin.Get(rbeginRep0, v) + v
	})

	scratch := newPRScratches(rt, bounds)
	st, err := allocPageRank(rt, g, degBits, scratch)
	if err != nil {
		return nil, 0, perfmodel.Workload{}, err
	}
	defer st.free()

	base := (1 - cfg.Damping) / float64(n)
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Per-worker float partials, combined once per worker after the
		// loop — no mutex (or atomic) per batch on the diff accumulation.
		totalDiff := rt.ReduceSumFloat64Bounds(bounds, func(w *rts.Worker, lo, hi uint64) float64 {
			sc := scratch.of(w)
			nv := hi - lo
			begins := sc.begins[:nv+1]
			core.ReadRange(g.RBegin, w.Socket, lo, hi+1, begins)
			sums := sc.sums[:nv]
			for i := range sums {
				sums[i] = 0
			}
			if eLo, eHi := begins[0], begins[nv]; eLo < eHi {
				cw := contribWords(st.contrib, w.Socket)
				vi := 0 // vertex whose in-edge segment the stream is inside
				core.StreamRange(g.REdge, w.Socket, eLo, eHi, sc.edgeBuf, func(eBase uint64, srcs []uint64) {
					runEnd := eBase + uint64(len(srcs))
					for e := eBase; e < runEnd; {
						for e >= begins[vi+1] {
							vi++ // past finished (and in-degree-0) vertices
						}
						segEnd := min(begins[vi+1], runEnd)
						sum := sums[vi]
						for _, src := range srcs[e-eBase : segEnd-eBase] {
							sum += math.Float64frombits(cw[src])
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
// and redge once through the chunk-decode kernels, reads one contribution
// per edge (semi-random, power-law locality; priced as a 64-bit gather,
// which is the load it is), and per vertex reads the old rank and the
// inverse degree and writes the next rank and the next contribution.
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
