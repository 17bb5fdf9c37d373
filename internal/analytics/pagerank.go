package analytics

import (
	"fmt"
	"math"
	"sync"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/memsim"
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

// PageRanker runs PageRank over one graph at one out-degree width. It is
// built once per graph and caches what depends on the graph alone: the
// iterations' degree-weighted batch bounds, the out-degree and inverse
// out-degree property arrays, and iteration 0's contributions, invDeg/n.
// Iteration 0's ranks are all 1/n and need no array. What a run writes —
// two rank/contribution pairs — is a lease, taken from the ranker's free
// list for the run and handed back after it. No cached array is written
// after NewPageRanker returns, so any number of runs may share a ranker at
// once, each on its own lease.
//
// The free list is a mutex-guarded slice and not a sync.Pool: a lease
// owns smart arrays, whose simulated memory and registry entries only
// their Free returns, and a pool drops what it holds at a GC unfreed.
type PageRanker struct {
	g       *graph.SmartCSR
	mem     *memsim.Memory
	degBits uint
	// bounds are the iterations' batch boundaries.
	bounds []uint64
	// scratch is per worker, shared by every run: a worker runs one batch
	// at a time, of whichever run, under its ownership flag, and a batch
	// leaves nothing in its scratch that a later batch reads.
	scratch prScratches
	// outDeg is the out-degrees property at degBits — the array the
	// paper's "V" variants compress. The iterations multiply by invDeg
	// instead; outDeg stays for the variant's memory footprint and for
	// property queries.
	outDeg *core.SmartArray
	// invDeg holds math.Float64bits(1/outDeg[v]) (0 for sinks): the only
	// divides PageRank does, once per vertex per graph.
	invDeg *core.SmartArray
	// contrib0 holds iteration 0's contributions, (1/n)*invDeg[v].
	contrib0 *core.SmartArray

	mu   sync.Mutex
	idle []*prLease // leases no run holds
}

// prLease is what one run writes. Iteration 0 reads the ranker's cached
// rows and writes pair 0; iteration i writes pair i%2 from the other, so
// the runs ping-pong between the two pairs.
type prLease struct {
	pairs [2]prPair
	// held is set while a run holds the lease and cleared, under the
	// ranker's mu, when it goes back on the free list.
	held bool
}

// prPair is one iteration's output: the 64-bit ranks and the
// contributions rank*invDeg that v hands each out-neighbour. The product
// is taken once per vertex when the rank is written, so an edge costs one
// 64-bit read.
type prPair struct {
	ranks, contribs *core.SmartArray
}

func (l *prLease) free() {
	for _, p := range l.pairs {
		for _, a := range []*core.SmartArray{p.ranks, p.contribs} {
			if a != nil {
				a.Free()
			}
		}
	}
}

// NewPageRanker builds g's ranker at out-degree width degBits (0 = 64)
// for runs on rt or on views of it. It allocates the property arrays with
// the graph's placement, as the paper's placement variations "apply to all
// arrays except for the output array", plus one lease, and fills the
// cached arrays in one parallel pass: the begin array is read once per
// batch through View.Read, degrees come from adjacent differences,
// written over the begin run, and go out with one InitRange per batch;
// the inverse degrees and contrib0 are written in place through their
// 64-bit write views (core.WriteAs). The batches are uniform
// rts.DefaultGrain ranges, whole bitpack chunks, so no two writers share a
// packed word of the out-degrees at a width below 64.
func NewPageRanker(rt *rts.Runtime, g *graph.SmartCSR, degBits uint) (*PageRanker, error) {
	if degBits == 0 {
		degBits = 64
	}
	n := g.NumVertices
	p := &PageRanker{g: g, mem: rt.Memory(), degBits: degBits}

	// Degree-aware batch boundaries: weight vertex v as 1 + in-degree so
	// each batch carries about the same edge traffic.
	rbeginRep0 := g.RBegin.GetReplica(0)
	totalWeight := n + g.NumEdges
	nbTarget := (n + rts.DefaultGrain - 1) / rts.DefaultGrain
	grainWeight := (totalWeight + nbTarget - 1) / nbTarget
	p.bounds = rts.WeightedBounds(0, n, grainWeight, func(v uint64) uint64 {
		return g.RBegin.Get(rbeginRep0, v) + v
	})
	p.scratch = make(prScratches, len(rt.Workers()))

	var err error
	if p.outDeg, err = p.alloc(degBits, "out-degrees"); err == nil {
		if p.invDeg, err = p.alloc(64, "inv-degrees"); err == nil {
			p.contrib0, err = p.alloc(64, "initial-rank-contribs")
		}
	}
	var l *prLease
	if err == nil {
		l, err = p.newLease()
	}
	if err != nil {
		p.Free()
		return nil, err
	}

	init := 1 / float64(n)
	rt.ParallelFor(0, n, rts.DefaultGrain, func(w *rts.Worker, lo, hi uint64) {
		sc := p.scratch.of(w)
		nv := hi - lo
		begins := sc.begins[:nv+1]
		begin := g.Begin.View(w.Socket)
		begin.Read(lo, hi+1, begins)
		// The degrees overwrite the begin run in place: degs[i] is read
		// from begins[i+1] before that is overwritten.
		degs := begins[:nv]
		for i := range degs {
			degs[i] = begins[i+1] - begins[i]
		}
		p.outDeg.InitRange(w.Socket, lo, degs)
		invs, contribs := writeWords64(p.invDeg, w.Socket, lo, hi), writeWords64(p.contrib0, w.Socket, lo, hi)
		for i, deg := range degs {
			var inv float64
			if deg > 0 {
				inv = 1 / float64(deg)
			}
			invs.Words[i] = math.Float64bits(inv)
			contribs.Words[i] = math.Float64bits(init * inv)
		}
		invs.Done()
		contribs.Done()
	})
	p.idle = append(p.idle, l)
	return p, nil
}

// PageRankerWidths are the widths of the per-vertex arrays NewPageRanker
// allocates at out-degree width degBits (0 = 64): the out-degrees, the
// inverse degrees and iteration 0's contributions, then its first lease's
// two rank and two contribution arrays.
func PageRankerWidths(degBits uint) []uint {
	if degBits == 0 {
		degBits = 64
	}
	return []uint{degBits, 64, 64, 64, 64, 64, 64}
}

// alloc allocates one n-element property array with the graph's placement.
func (p *PageRanker) alloc(bits uint, name string) (*core.SmartArray, error) {
	layout := p.g.Layout()
	a, err := core.Allocate(p.mem, core.Config{
		Name:   name,
		Length: p.g.NumVertices, Bits: bits,
		Placement: layout.Placement, Socket: layout.Socket,
	})
	if err != nil {
		return nil, fmt.Errorf("analytics: PageRank %s: %w", name, err)
	}
	return a, nil
}

// newLease allocates a lease's four arrays.
func (p *PageRanker) newLease() (*prLease, error) {
	l := &prLease{}
	names := [2][2]string{{"ranks", "rank-contribs"}, {"next-ranks", "next-rank-contribs"}}
	for i := range l.pairs {
		var err error
		if l.pairs[i].ranks, err = p.alloc(64, names[i][0]); err == nil {
			l.pairs[i].contribs, err = p.alloc(64, names[i][1])
		}
		if err != nil {
			l.free()
			return nil, err
		}
	}
	return l, nil
}

// acquire takes an idle lease, or allocates one when every lease is held,
// so the free list grows to the peak number of concurrent runs.
func (p *PageRanker) acquire() (*prLease, error) {
	p.mu.Lock()
	var l *prLease
	if k := len(p.idle); k > 0 {
		l, p.idle = p.idle[k-1], p.idle[:k-1]
	}
	p.mu.Unlock()
	if l == nil {
		var err error
		if l, err = p.newLease(); err != nil {
			return nil, err
		}
	}
	l.held = true // the lease is this run's alone from here
	return l, nil
}

// release hands l back to the free list; a second release of one
// acquire would put it there twice, for two runs to take at once.
func (p *PageRanker) release(l *prLease) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !l.held {
		panic("analytics: PageRank lease released twice")
	}
	l.held = false
	p.idle = append(p.idle, l)
}

// Free releases the cached arrays and every lease. No run may be in
// flight, and the ranker must not be used again.
func (p *PageRanker) Free() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.idle {
		l.free()
	}
	p.idle = nil
	for _, a := range []*core.SmartArray{p.outDeg, p.invDeg, p.contrib0} {
		if a != nil {
			a.Free()
		}
	}
}

// prScratch is one worker's scratch: the begin run of the current range,
// and the window the in-edges of a redge with no typed view decode into.
// Only the owning worker touches it. A sub-range's next ranks and next
// contributions need no row: they are written in place, through the
// lease arrays' write views.
type prScratch struct {
	begins  []uint64
	edgeBuf []uint64
}

// prEdgeBufLen is the in-edge window length: a multiple of the bitpack
// chunk so windows after the first decode whole chunks, big enough to
// amortize the refill, small enough to stay cache-resident.
const prEdgeBufLen = 16 * bitpack.ChunkSize

// prScratches is a ranker's per-worker scratch, shared by the build pass
// (uniform rts.DefaultGrain batches) and every iteration of every run,
// which walks each of the ranker's degree-weighted batches in sub-ranges
// of at most rts.DefaultGrain vertices. Its rows are therefore
// DefaultGrain long however large the largest batch is.
type prScratches []prScratch

// of returns w's scratch. A worker's first batch on the ranker allocates
// its begin row, and a worker that never claims a batch allocates nothing.
func (p prScratches) of(w *rts.Worker) *prScratch {
	sc := &p[w.ID]
	if sc.begins == nil {
		sc.begins = make([]uint64, rts.DefaultGrain+1)
	}
	return sc
}

// edgeWindow returns the worker's in-edge window, allocated on its first
// decoded read: a redge read in place never allocates one.
func (sc *prScratch) edgeWindow() []uint64 {
	if sc.edgeBuf == nil {
		sc.edgeBuf = make([]uint64, prEdgeBufLen)
	}
	return sc.edgeBuf
}

// inEdgeWindows reads one sub-range's in-edges [next, end) from redge
// into buf, a window of at most len(buf) edges at a time, for a redge
// that has no typed view (the compressed edge layouts). The first window
// starts at the sub-range's first edge and every later one on a chunk
// boundary, so View.Read decodes whole chunks.
type inEdgeWindows struct {
	redge     core.View
	buf       []uint64
	next, end uint64
}

// read decodes the next window and returns it.
func (w *inEdgeWindows) read() []uint64 {
	hi := min(w.next-w.next%bitpack.ChunkSize+uint64(len(w.buf)), w.end)
	win := w.buf[:hi-w.next]
	w.redge.Read(w.next, hi, win)
	w.next = hi
	return win
}

// prStep is what every sub-range of one iteration reads besides its own
// rows: the contributions cw its in-edges gather from, and the rank
// formula's constants.
type prStep struct {
	cw            []uint64
	base, damping float64
	// init is every old rank in iteration 0, which has no rank array.
	init float64
}

// prRows are one sub-range's per-vertex rows, all in place: the
// reverse-begin run begins (one longer than the others), the old ranks
// (nil in iteration 0), the inverse degrees, and the next ranks and next
// contributions it writes.
type prRows struct {
	begins, olds, invs, ranks, contribs []uint64
}

// rankVertices is one sub-range of an iteration, in one pass over its
// vertices: for each vertex it adds the contributions of its
// in-neighbours in edge order, writes the next rank base+damping*sum and
// the next contribution rank*invDeg, and adds |next-old| to diff, which
// it returns. The sub-range's in-edges come in consecutive windows: edges
// is the first, and more returns the next whenever a segment runs past
// the current one. A redge read in place hands the whole run over as
// edges, so more is never called; a decoded one starts empty and refills
// from inEdgeWindows. A vertex without in-edges — most of a power-law
// graph's — costs one test.
func rankVertices[E uint32 | uint64](s *prStep, r *prRows, edges []E, more func() []E, diff float64) float64 {
	cw, base, damping, init := s.cw, s.base, s.damping, s.init
	begins, olds, ranks := r.begins, r.olds, r.ranks
	invs, contribs := r.invs[:len(ranks)], r.contribs[:len(ranks)]
	_ = begins[len(ranks)]
	rest := edges // the current window's edges not yet summed
	for i := range ranks {
		var sum float64
		if n := begins[i+1] - begins[i]; n != 0 {
			for uint64(len(rest)) < n {
				sum = addContribs(sum, cw, rest)
				n -= uint64(len(rest))
				rest = more()
			}
			sum = addContribs(sum, cw, rest[:n])
			rest = rest[n:]
		}
		old := init
		if olds != nil {
			old = math.Float64frombits(olds[i])
		}
		next := base + damping*sum
		diff += math.Abs(next - old)
		ranks[i] = math.Float64bits(next)
		contribs[i] = math.Float64bits(next * math.Float64frombits(invs[i]))
	}
	return diff
}

// addContribs adds the contributions cw of the sources srcs to sum, in
// order. It is kept out of line: inlined, rankVertices' live slices crowd
// the registers and the compiler spills this loop's index on every edge.
//
//go:noinline
func addContribs[E uint32 | uint64](sum float64, cw []uint64, srcs []E) float64 {
	for _, src := range srcs {
		sum += math.Float64frombits(cw[src])
	}
	return sum
}

// Words64 returns a PageRank rank or contribution array's typed view at
// 64 bits (core.WordsAs) for a reader on socket: its elements in place,
// cut to its length. PageRank allocates those arrays bit-packed at 64
// bits and never re-encodes them, so any other layout is a broken
// invariant, not a slower path. The words are read under a pin: a
// parallel loop's, or outside one the caller's own (a.Memory().Pin()).
func Words64(a *core.SmartArray, socket int) []uint64 {
	v := a.View(socket)
	words, ok := core.WordsAs[uint64](&v)
	if !ok {
		panic("analytics: PageRank rank array is not bit-packed at 64 bits")
	}
	return words
}

// writeWords64 opens elements [lo, hi) of a PageRank rank, contribution
// or inverse-degree array for writing from socket, in place, through its
// 64-bit write view (core.WriteAs); the caller writes every element and
// calls Done. Like Words64 it panics on any layout but bit-packed at 64
// bits.
func writeWords64(a *core.SmartArray, socket int, lo, hi uint64) core.WriteView[uint64] {
	w, ok := core.WriteAs[uint64](a, socket, lo, hi)
	if !ok {
		panic("analytics: PageRank rank array is not bit-packed at 64 bits")
	}
	return w
}

// Run runs pull-based PageRank over the ranker's graph (paper §5.2) on
// the graph fast path, on a lease, and calls visit with the final ranks —
// doubles stored bit-cast in a 64-bit smart array — before the lease goes
// back; visit must not keep the array. rt must be the runtime the ranker
// was built with or a view of it, and cfg.DegreeBits 0 or the ranker's
// width.
//
// Each sub-range of an iteration is one pass over its vertices
// (rankVertices) that reads its inputs in place and writes its outputs in
// place. Each batch takes one View of rbegin and one of redge under the
// loop's pin and, in sub-ranges of at most rts.DefaultGrain vertices,
// reads its reverse-begin run through View.Read and opens the lease's
// next rank and next contribution arrays over the sub-range through their
// 64-bit write views (core.WriteAs). Per vertex it adds the neighbours'
// contributions of its in-edge segment, in edge order, straight from the
// contribution array's 64-bit typed view; reads its old rank and inverse
// degree in place (Words64; iteration 0's old ranks are all 1/n); and
// writes the new rank and its contribution into the write views' words.
// The write views' Done then copies the sub-range to the other replicas.
// The edges are read in place through redge's 32-bit typed view when it
// has one (the served "V" layout), and otherwise decoded in View.Read
// windows (inEdgeWindows). Vertex ranges are split by in-degree
// (rts.WeightedBounds), so power-law hubs do not serialize their batch;
// enable rt.SetStealing for cross-socket balance on skewed graphs.
//
// It returns the iteration count.
func (p *PageRanker) Run(rt *rts.Runtime, cfg PageRankConfig, visit func(ranks *core.SmartArray)) (int, error) {
	if err := checkPageRankConfig(cfg); err != nil {
		return 0, err
	}
	if cfg.DegreeBits != 0 && cfg.DegreeBits != p.degBits {
		return 0, fmt.Errorf("analytics: PageRank at %d-bit degrees on a %d-bit ranker", cfg.DegreeBits, p.degBits)
	}
	l, err := p.acquire()
	if err != nil {
		return 0, err
	}
	defer p.release(l)

	g := p.g
	n := g.NumVertices
	init := 1 / float64(n)
	base := (1 - cfg.Damping) / float64(n)
	from := prPair{contribs: p.contrib0} // iteration 0: cached contributions, ranks all init
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		to := l.pairs[iter%2]
		// Per-worker float partials, combined once per worker after the
		// loop — no mutex (or atomic) per batch on the diff accumulation.
		totalDiff := rt.ReduceSumFloat64Bounds(p.bounds, func(w *rts.Worker, bLo, bHi uint64) float64 {
			sc := p.scratch.of(w)
			rbegin, redge := g.RBegin.View(w.Socket), g.REdge.View(w.Socket)
			edges, inPlace := core.WordsAs[uint32](&redge)
			step := prStep{cw: Words64(from.contribs, w.Socket), base: base, damping: cfg.Damping, init: init}
			invDeg := Words64(p.invDeg, w.Socket)
			var oldRanks []uint64 // nil in iteration 0: every old rank is init
			if from.ranks != nil {
				oldRanks = Words64(from.ranks, w.Socket)
			}
			// The batch is walked in sub-ranges of at most DefaultGrain
			// vertices, so the begin row stays grain-sized however many
			// vertices the batch's edge weight spans. A sub-range starts at
			// a vertex, so each in-edge segment is summed whole, in edge
			// order, and localDiff is carried across them in vertex order.
			// Cuts fall on multiples of the grain, whole bitpack chunks, so
			// only the batch's own ends are read element by element.
			var localDiff float64
			for lo := bLo; lo < bHi; {
				hi := min(lo-lo%rts.DefaultGrain+rts.DefaultGrain, bHi)
				nv := hi - lo
				rows := prRows{begins: sc.begins[:nv+1], invs: invDeg[lo:hi]}
				if oldRanks != nil {
					rows.olds = oldRanks[lo:hi]
				}
				rbegin.Read(lo, hi+1, rows.begins)
				ranks, contribs := writeWords64(to.ranks, w.Socket, lo, hi), writeWords64(to.contribs, w.Socket, lo, hi)
				rows.ranks, rows.contribs = ranks.Words, contribs.Words
				first, end := rows.begins[0], rows.begins[nv]
				if inPlace {
					localDiff = rankVertices(&step, &rows, edges[first:end], nil, localDiff)
				} else {
					win := inEdgeWindows{redge: redge, buf: sc.edgeWindow(), next: first, end: end}
					localDiff = rankVertices(&step, &rows, nil, win.read, localDiff)
				}
				ranks.Done()
				contribs.Done()
				lo = hi
			}
			return localDiff
		})
		from = to
		iters++
		if totalDiff < cfg.Tol {
			break
		}
	}
	visit(from.ranks)
	return iters, nil
}

// PageRank runs PageRank once over g: a ranker built for the call, one
// Run that copies the converged ranks out, and Free. Servers that rank
// one graph many times keep a PageRanker instead. It returns the ranks,
// the iteration count, and the run's workload descriptor.
func PageRank(rt *rts.Runtime, g *graph.SmartCSR, cfg PageRankConfig) ([]float64, int, perfmodel.Workload, error) {
	p, err := NewPageRanker(rt, g, cfg.DegreeBits)
	if err != nil {
		return nil, 0, perfmodel.Workload{}, err
	}
	defer p.Free()
	out := make([]float64, g.NumVertices)
	iters, err := p.Run(rt, cfg, func(ranks *core.SmartArray) {
		var buf [rts.DefaultGrain]uint64
		for lo := uint64(0); lo < uint64(len(out)); lo += uint64(len(buf)) {
			hi := min(lo+uint64(len(buf)), uint64(len(out)))
			core.ReadRange(ranks, 0, lo, hi, buf[:])
			for i, bits := range buf[:hi-lo] {
				out[lo+uint64(i)] = math.Float64frombits(bits)
			}
		}
	})
	if err != nil {
		return nil, 0, perfmodel.Workload{}, err
	}
	return out, iters, pageRankWorkload(rt, p, iters), nil
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
// and redge once (rbegin through the chunk decode; redge in place through
// its typed view at 32 bits, through the chunk decode at a compressed
// width; both priced as a stream at the array's width), reads one
// contribution per edge (semi-random, power-law locality; priced as a
// 64-bit gather, which is the load it is), and per vertex reads the old
// rank and the inverse degree in place and writes the next rank and the
// next contribution in place through the lease's write views (priced as
// two 64-bit inits, the stores they are); the ranker's contrib0 has the
// shape of every per-vertex row a run touches.
func pageRankWorkload(rt *rts.Runtime, p *PageRanker, iters int) perfmodel.Workload {
	g, row := p.g, p.contrib0
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
			randomStream(row, it*e, llc, perfmodel.PowerLawLocalityBoost),
			scanStream(row, 2*it),  // old rank + inverse degree
			writeStream(row, 2*it), // next rank + next contribution
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
