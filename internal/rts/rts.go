// Package rts is the reproduction's Callisto-RTS (§2.2): a runtime system
// for fine-grained parallel loops over a pool of socket-pinned workers.
//
// Callisto-RTS distributes loop iterations dynamically between worker
// threads in small batches, so fast threads (e.g. those local to the data)
// naturally absorb more work. Here every simulated hardware thread of the
// declared machine gets a Worker; batches are claimed from per-socket
// stripes with an atomic cursor, which keeps cross-socket work attribution
// deterministic (socket stripes are round-robin) while remaining dynamic
// within each socket — the property the counter fabric and the performance
// model rely on.
//
// Each Worker owns a private counters.Shard, so loop bodies account traffic
// and instructions without synchronization. Every loop — from one caller
// or from many at once — runs through the one engine in sched.go.
package rts

import (
	"fmt"
	"sort"
	"sync/atomic"

	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
)

// DefaultGrain is the default batch size (loop iterations per work claim).
// Callisto uses small batches for fine-grained balancing; 2048 keeps the
// claim overhead negligible for element-wise loop bodies.
const DefaultGrain = 2048

// LoopHistogram is the recorder histogram that receives one wall-time
// observation per parallel loop execution.
const LoopHistogram = "rts.loop"

// Worker is one simulated hardware thread context.
type Worker struct {
	// ID is the hardware thread ID in [0, spec.HWThreads()).
	ID int
	// Socket is the NUMA node this worker is pinned to.
	Socket int
	// Counters is the worker-private counter shard.
	Counters *counters.Shard
	// held is the worker's ownership flag: the goroutine that set it is the
	// only one that may run a body as this worker, write Counters, or index
	// per-worker scratch by ID, until it clears it again (see engine).
	held atomic.Bool
}

// Runtime owns the worker pool, the counter fabric, and the simulated
// memory of one machine. WithPriority/WithProfile views are shallow copies
// that share the engine, so loops from every view meet in one place.
type Runtime struct {
	spec   *machine.Spec
	fabric *counters.Fabric
	*engine
	// rec, when set, receives one LoopStats event per loop. Claim counting
	// stays in executor-local state until a worker leaves the loop, so
	// recording never adds cross-worker synchronization to the hot path.
	rec *obs.Recorder
	// stealing lets a worker whose home stripe drained claim from other
	// sockets' stripes. See SetStealing for why it defaults off.
	stealing bool
	// prio is the priority loops submitted through this view run at (see
	// WithPriority).
	prio int
	// prof, when set, receives per-loop morsel attribution (loops run,
	// batches claimed/stolen) for the one query this view serves. Like
	// prio it is carried on read-only views (WithProfile), so concurrent
	// handlers tag their own loops without mutating the shared runtime.
	prof *obs.QueryProfile
}

// New creates a runtime for the given machine with one worker per hardware
// thread. A runtime with no loop in flight owns no goroutine, so it needs
// no Close; a service that wants a clean stop calls Close.
func New(spec *machine.Spec) *Runtime {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	r := &Runtime{
		spec:   spec,
		fabric: counters.NewFabric(spec.Sockets),
		engine: &engine{mem: memsim.New(spec), bySocket: make([][]*Worker, spec.Sockets)},
	}
	r.active.Store(new([]*schedLoop))
	for id := 0; id < spec.HWThreads(); id++ {
		w := &Worker{
			ID:       id,
			Socket:   spec.SocketOf(id),
			Counters: r.fabric.NewShard(spec.SocketOf(id)),
		}
		r.workers = append(r.workers, w)
		r.sockets = append(r.sockets, w.Socket)
		r.bySocket[w.Socket] = append(r.bySocket[w.Socket], w)
	}
	return r
}

// Spec returns the machine this runtime simulates.
func (r *Runtime) Spec() *machine.Spec { return r.spec }

// Fabric returns the counter fabric (for snapshots around measured phases).
func (r *Runtime) Fabric() *counters.Fabric { return r.fabric }

// Memory returns the simulated NUMA memory.
func (r *Runtime) Memory() *memsim.Memory { return r.mem }

// Workers returns the worker pool (read-only use).
func (r *Runtime) Workers() []*Worker { return r.workers }

// SetRecorder attaches an observability recorder; every subsequent loop
// emits one loop-statistics event. A nil recorder detaches.
// Must not be called while a parallel loop is running.
func (r *Runtime) SetRecorder(rec *obs.Recorder) { r.rec = rec }

// SetArrayProfiling is the switch for array telemetry. It attaches reg to
// the runtime's memory: every smart array allocated from Memory() after
// the call registers with reg, and the accounting hooks add those arrays'
// accesses to their counter blocks in reg as the loop bodies run, so they
// are all in reg when the loop returns. The runtime itself never touches
// reg. nil detaches; arrays allocated earlier keep their registration.
// Views share the setting. Must not be called while a parallel loop is
// running.
func (r *Runtime) SetArrayProfiling(reg *obs.ArrayRegistry) { r.mem.AttachArrayRegistry(reg) }

// WithPriority returns a read-only view of the runtime whose loops run at
// priority p (higher runs sooner; 0 otherwise). The view
// shares the workers, memory, counters, recorder and loop engine of its
// parent — it exists so concurrent query handlers can tag the loops
// of one query without mutating the shared runtime. Set* calls on a view
// do not propagate and must not be used; create views only after the base
// runtime is fully configured.
func (r *Runtime) WithPriority(p int) *Runtime {
	view := *r
	view.prio = p
	return &view
}

// WithProfile returns a read-only view of the runtime whose loops are
// attributed to the given query profile: each loop run through the view
// adds its claimed/stolen batch counts via QueryProfile.AddLoop. Like
// WithPriority, the view shares everything else with its parent. The
// query service serves every query through such a view.
func (r *Runtime) WithProfile(p *obs.QueryProfile) *Runtime {
	view := *r
	view.prof = p
	return &view
}

// Profile returns the query profile this runtime view attributes loops
// to (nil outside a query: figures, probes, the paper's workloads).
// Layers below the runtime — colstore's scan — use this to reach the
// request's profile without threading it through every call signature.
func (r *Runtime) Profile() *obs.QueryProfile { return r.prof }

// SetStealing enables or disables Callisto's cross-socket work stealing: a
// worker whose socket stripe drains starts claiming batches from the
// stripe with the most remaining work. Stealing defaults off because the
// §6 adaptivity profiler and the OSDefault first-touch page maps consume
// per-socket attribution that stripe-faithful claiming makes deterministic
// — on an oversubscribed host the first-scheduled worker would otherwise
// drain other sockets' stripes and skew the socket split. Graph analytics
// over skewed (power-law) CSR ranges and the query service turn it on: any
// free worker may then take any batch, and the steal counts surface in
// loop events and query profiles. Must not be called while a parallel loop
// is running; views taken earlier keep the setting they were made with.
func (r *Runtime) SetStealing(on bool) { r.stealing = on }

// ParallelFor executes body over every index range covering [begin, end),
// distributing batches of about grain iterations dynamically among all
// workers. Batches are striped round-robin across sockets; within a socket
// they are claimed dynamically. body may be called concurrently from many
// goroutines; each call receives the claiming worker (for replica selection
// and counter accounting) and a half-open sub-range. Any number of
// goroutines may run loops on one runtime at once. If a body panics, the
// loop's unclaimed batches are dropped and the first panic value is raised
// again here, in the caller, once the running batches have returned.
//
// grain <= 0 selects DefaultGrain.
func (r *Runtime) ParallelFor(begin, end uint64, grain int64, body func(w *Worker, lo, hi uint64)) {
	if begin >= end {
		return
	}
	g := uint64(grain)
	if grain <= 0 {
		g = DefaultGrain
	}
	total := end - begin
	r.run(loopShape{
		begin: begin, end: end, iterations: total, grain: g,
		numBatches: (total + g - 1) / g,
	}, body)
}

// ParallelForBounds is ParallelFor over explicit batch boundaries: batch b
// covers [bounds[b], bounds[b+1]). Bounds must be strictly increasing;
// build them with WeightedBounds when batches should carry equal work
// rather than equal iteration counts (skewed CSR vertex ranges). Loop
// events record Grain 0 for bounds loops.
func (r *Runtime) ParallelForBounds(bounds []uint64, body func(w *Worker, lo, hi uint64)) {
	if len(bounds) < 2 {
		return
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("rts: bounds not strictly increasing at %d: %d -> %d", i, bounds[i-1], bounds[i]))
		}
	}
	r.run(loopShape{
		begin: bounds[0], end: bounds[len(bounds)-1], iterations: bounds[len(bounds)-1] - bounds[0],
		numBatches: uint64(len(bounds) - 1), bounds: bounds,
	}, body)
}

// Span is a half-open index range [Lo, Hi).
type Span struct{ Lo, Hi uint64 }

// ParallelForSpans is ParallelFor over the listed ranges only: each span
// is cut into batches of about grain iterations, and the indices between
// spans are never visited and cost no claims — the shape of a scan whose
// planner already proved most of the range empty. However fragmented,
// the list is one loop (one admission, one barrier, one loop event), and
// it costs memory per span, not per batch. Spans must be non-empty,
// ascending and disjoint; an empty list runs no loop. grain <= 0 selects
// DefaultGrain.
func (r *Runtime) ParallelForSpans(spans []Span, grain int64, body func(w *Worker, lo, hi uint64)) {
	if len(spans) == 0 {
		return
	}
	g := uint64(grain)
	if grain <= 0 {
		g = DefaultGrain
	}
	sh := loopShape{
		begin: spans[0].Lo, end: spans[len(spans)-1].Hi, grain: g,
		spans: spans, firstBatch: make([]uint64, len(spans)),
	}
	for i, sp := range spans {
		if sp.Lo >= sp.Hi || (i > 0 && sp.Lo < spans[i-1].Hi) {
			panic(fmt.Sprintf("rts: span %d [%d,%d) empty or not past its predecessor", i, sp.Lo, sp.Hi))
		}
		sh.firstBatch[i] = sh.numBatches
		sh.numBatches += (sp.Hi - sp.Lo + g - 1) / g
		sh.iterations += sp.Hi - sp.Lo
	}
	r.run(sh, body)
}

// loopShape describes one parallel loop's batch decomposition: uniform
// batches of grain iterations over one range or over a list of spans with
// gaps, or explicit boundaries for weighted splits.
type loopShape struct {
	begin, end uint64
	// iterations is how many indices the loop runs: end-begin, less the
	// gaps between spans.
	iterations uint64
	// grain is the uniform batch size, 0 for bounds-driven loops.
	grain      uint64
	numBatches uint64
	// bounds, when non-nil, gives batch b the range [bounds[b], bounds[b+1]).
	bounds []uint64
	// spans, when non-nil, restricts the loop to these ranges, each cut
	// into grain-sized batches; span i's first batch is firstBatch[i].
	spans      []Span
	firstBatch []uint64
}

// batch returns the index range of batch b — the one place a claim turns
// into a range.
func (sh *loopShape) batch(b uint64) (lo, hi uint64) {
	if sh.bounds != nil {
		return sh.bounds[b], sh.bounds[b+1]
	}
	begin, end := sh.begin, sh.end
	if sh.spans != nil {
		// The last span whose first batch is at or before b (firstBatch[0]
		// is 0, so there always is one).
		i := sort.Search(len(sh.firstBatch), func(i int) bool { return sh.firstBatch[i] > b }) - 1
		b -= sh.firstBatch[i]
		begin, end = sh.spans[i].Lo, sh.spans[i].Hi
	}
	lo = begin + b*sh.grain
	hi = lo + sh.grain
	if hi > end {
		hi = end
	}
	return lo, hi
}

// WeightedBounds builds batch boundaries over [begin, end) such that each
// batch carries about grainWeight units of work, where prefix(i) is the
// cumulative work of elements [0, i) (any monotone non-decreasing
// function; for CSR vertex ranges, the begin array plus a constant per
// vertex). This is the degree-aware grain hint: skewed ranges split by
// edge count rather than vertex count, so one hub vertex cannot turn its
// batch into the loop's critical path. Every batch is non-empty; the
// number of batches is ceil(totalWeight/grainWeight) capped at end-begin.
func WeightedBounds(begin, end, grainWeight uint64, prefix func(uint64) uint64) []uint64 {
	if begin >= end {
		return nil
	}
	if grainWeight == 0 {
		grainWeight = 1
	}
	base := prefix(begin)
	total := prefix(end) - base
	nb := (total + grainWeight - 1) / grainWeight
	if nb == 0 {
		nb = 1
	}
	if span := end - begin; nb > span {
		nb = span
	}
	bounds := make([]uint64, 0, nb+1)
	bounds = append(bounds, begin)
	cur := begin
	for k := uint64(1); k < nb; k++ {
		// Smallest boundary whose prefix reaches the k-th equal-weight cut,
		// clamped so this batch and every remaining batch stay non-empty.
		target := base + total/nb*k + total%nb*k/nb
		lo, hi := cur+1, end-(nb-k)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if prefix(mid) >= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cur = lo
		bounds = append(bounds, cur)
	}
	return append(bounds, end)
}

// paddedUint64 is a cache-line-sized accumulator slot: per-worker partials
// live in their own lines so host-level false sharing cannot serialize the
// reduction the simulation models as synchronization-free.
type paddedUint64 struct {
	v uint64
	_ [56]byte
}

// paddedFloat64 is the float counterpart of paddedUint64.
type paddedFloat64 struct {
	v float64
	_ [56]byte
}

// ReduceSum is a convenience wrapper for the paper's canonical aggregation
// pattern: each worker accumulates a private partial sum across all of its
// batches, and the partials are combined once per worker after the loop
// barrier — not one atomic per batch. Each slot is written only by the
// goroutine holding that worker's ownership flag; ParallelFor's completion
// wait orders those writes before the merge, so the reduction needs no
// atomics at all.
func (r *Runtime) ReduceSum(begin, end uint64, grain int64, body func(w *Worker, lo, hi uint64) uint64) uint64 {
	partials := make([]paddedUint64, len(r.workers))
	r.ParallelFor(begin, end, grain, func(w *Worker, lo, hi uint64) {
		partials[w.ID].v += body(w, lo, hi)
	})
	var total uint64
	for i := range partials {
		total += partials[i].v
	}
	return total
}

// ReduceMax folds per-batch maxima into per-worker partials the same way;
// an empty range returns the identity, 0.
func (r *Runtime) ReduceMax(begin, end uint64, grain int64, body func(w *Worker, lo, hi uint64) uint64) uint64 {
	partials := make([]paddedUint64, len(r.workers))
	r.ParallelFor(begin, end, grain, func(w *Worker, lo, hi uint64) {
		if v := body(w, lo, hi); v > partials[w.ID].v {
			partials[w.ID].v = v
		}
	})
	var max uint64
	for i := range partials {
		if partials[i].v > max {
			max = partials[i].v
		}
	}
	return max
}

// ReduceSumFloat64Bounds sums float partials over explicit batch
// boundaries (see ParallelForBounds) — the shape of PageRank's
// convergence-difference accumulation over degree-weighted vertex ranges.
// Per-worker partials make the result deterministic for a fixed worker
// count up to the final merge order, which iterates workers in ID order.
func (r *Runtime) ReduceSumFloat64Bounds(bounds []uint64, body func(w *Worker, lo, hi uint64) float64) float64 {
	partials := make([]paddedFloat64, len(r.workers))
	r.ParallelForBounds(bounds, func(w *Worker, lo, hi uint64) {
		partials[w.ID].v += body(w, lo, hi)
	})
	var total float64
	for i := range partials {
		total += partials[i].v
	}
	return total
}
