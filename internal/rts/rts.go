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
// and instructions without synchronization.
package rts

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
}

// Runtime owns the worker pool, the counter fabric, and the simulated
// memory of one machine.
type Runtime struct {
	spec    *machine.Spec
	fabric  *counters.Fabric
	mem     *memsim.Memory
	workers []*Worker
	// hostPar caps the number of concurrently running goroutines; simulated
	// workers beyond it share host threads (performance is modeled, so host
	// oversubscription does not distort results).
	hostPar int
	// rec, when set, receives one LoopStats event per ParallelFor. Claim
	// counting stays in goroutine-local state so recording never adds
	// cross-worker synchronization to the hot path.
	rec *obs.Recorder
	// firstOnSocket[s] is the lowest worker ID pinned to socket s — the
	// worker the single-batch ParallelFor path runs on, consistent with the
	// stripe rule (batch 0 belongs to socket 0's stripe).
	firstOnSocket []int
	// stealing enables cross-socket batch stealing once a worker's own
	// stripe drains. See SetStealing for why it defaults off.
	stealing bool
	// areg, when set, receives per-array access telemetry: each worker's
	// shard accumulates counters.ArrayAccess deltas worker-locally and
	// the loop barrier folds them into the registry — once per loop, like
	// the claim counters.
	areg *obs.ArrayRegistry
	// sched, when set, takes over loop execution: every loop is submitted
	// to the shared scheduler instead of spawning per-loop goroutines, so
	// many callers can run loops concurrently over the same worker pool.
	// See Scheduler.
	sched *Scheduler
	// prio is the priority scheduled loops submitted through this view
	// run at (see WithPriority). Unused without a scheduler.
	prio int
	// prof, when set, receives per-loop morsel attribution (loops run,
	// batches claimed/stolen) for the one query this view serves. Like
	// prio it is carried on read-only views (WithProfile), so concurrent
	// handlers tag their own loops without mutating the shared runtime.
	prof *obs.QueryProfile
}

// New creates a runtime for the given machine with one worker per hardware
// thread.
func New(spec *machine.Spec) *Runtime {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	r := &Runtime{
		spec:    spec,
		fabric:  counters.NewFabric(spec.Sockets),
		mem:     memsim.New(spec),
		hostPar: runtime.GOMAXPROCS(0),
	}
	r.firstOnSocket = make([]int, spec.Sockets)
	for s := range r.firstOnSocket {
		r.firstOnSocket[s] = -1
	}
	for id := 0; id < spec.HWThreads(); id++ {
		w := &Worker{
			ID:       id,
			Socket:   spec.SocketOf(id),
			Counters: r.fabric.NewShard(spec.SocketOf(id)),
		}
		r.workers = append(r.workers, w)
		if r.firstOnSocket[w.Socket] == -1 {
			r.firstOnSocket[w.Socket] = id
		}
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

// Worker returns the worker for hardware thread id.
func (r *Runtime) Worker(id int) *Worker { return r.workers[id] }

// SetRecorder attaches an observability recorder; every subsequent
// ParallelFor emits one loop-statistics event. A nil recorder detaches.
// Must not be called while a parallel loop is running.
func (r *Runtime) SetRecorder(rec *obs.Recorder) { r.rec = rec }

// Recorder returns the attached recorder (nil when not recording).
func (r *Runtime) Recorder() *obs.Recorder { return r.rec }

// SetArrayProfiling attaches an array-telemetry registry: every worker
// shard starts accumulating per-array access deltas, folded into reg at
// each loop barrier (plus FoldArrayProfiles for sequential phases). nil
// detaches and drops pending worker-local state. Arrays register
// themselves via core.SetArrayRegistry — attach the same registry there,
// or use the bench harness which wires both. Must not be called while a
// parallel loop is running.
func (r *Runtime) SetArrayProfiling(reg *obs.ArrayRegistry) {
	r.areg = reg
	for _, w := range r.workers {
		if reg != nil {
			w.Counters.EnableArrayProfiling()
		} else {
			w.Counters.DisableArrayProfiling()
		}
	}
}

// ArrayProfiles returns the attached telemetry registry (nil when off).
func (r *Runtime) ArrayProfiles() *obs.ArrayRegistry { return r.areg }

// FoldArrayProfiles folds every worker shard's pending per-array deltas
// into the registry. The loop barrier does this automatically after each
// parallel loop; call it manually after sequential phases (SequentialFor
// bodies) so their accesses surface too. Must not run concurrently with a
// parallel loop.
func (r *Runtime) FoldArrayProfiles() {
	if r.areg == nil {
		return
	}
	for _, w := range r.workers {
		r.areg.FoldShard(w.Counters)
	}
}

// SetScheduler attaches (or, with nil, detaches) a shared loop scheduler:
// every subsequent loop on this runtime — ParallelFor, the Reduce*
// wrappers, ParallelForBounds, SequentialFor — is submitted to it rather
// than run with per-loop goroutines, which makes concurrent loop
// submission from many goroutines safe (the scheduler's executor
// goroutines keep worker shards owner-only). Must not be called while any
// loop is running. The scheduler claims batches from a single global
// cursor, so the per-socket counter attribution determinism of the
// benchmark path does not hold in scheduled mode.
func (r *Runtime) SetScheduler(s *Scheduler) { r.sched = s }

// Scheduler returns the attached scheduler (nil when loops run exclusive).
func (r *Runtime) Scheduler() *Scheduler { return r.sched }

// WithPriority returns a read-only view of the runtime whose scheduled
// loops run at priority p (higher runs sooner; DefaultPriority otherwise).
// The view shares the workers, memory, counters, recorder, and scheduler
// of its parent — it exists so concurrent query handlers can tag the loops
// of one query without mutating the shared runtime. Set* calls on a view
// do not propagate and must not be used; create views only after the base
// runtime is fully configured.
func (r *Runtime) WithPriority(p int) *Runtime {
	view := *r
	view.prio = p
	return &view
}

// Priority reports the loop priority this runtime view submits at.
func (r *Runtime) Priority() int { return r.prio }

// WithProfile returns a read-only view of the runtime whose loops are
// attributed to the given query profile: each loop run through the view
// adds its claimed/stolen batch counts via QueryProfile.AddLoop. Like
// WithPriority, the view shares everything else with its parent; a nil
// profile returns a view that records nothing (the hot path stays
// branch-only).
func (r *Runtime) WithProfile(p *obs.QueryProfile) *Runtime {
	view := *r
	view.prof = p
	return &view
}

// Profile returns the query profile this runtime view attributes loops
// to (nil when the request is not sampled). Layers below the runtime —
// colstore's scan kernels — use this to reach the request's profile
// without threading it through every call signature.
func (r *Runtime) Profile() *obs.QueryProfile { return r.prof }

// SetStealing enables or disables Callisto's cross-socket work stealing: a
// worker whose socket stripe drains starts claiming batches from the
// stripe with the most remaining work. Stealing defaults off because the
// §6 adaptivity profiler consumes per-socket counter attribution that
// stripe-faithful claiming makes deterministic — on an oversubscribed host
// the first-scheduled worker would otherwise drain other sockets' stripes
// and skew the socket split. Graph analytics over skewed (power-law) CSR
// ranges turn it on explicitly; steal counts surface in the loop events.
// Must not be called while a parallel loop is running.
func (r *Runtime) SetStealing(on bool) { r.stealing = on }

// Stealing reports whether cross-socket stealing is enabled.
func (r *Runtime) Stealing() bool { return r.stealing }

// ParallelFor executes body over every index range covering [begin, end),
// distributing batches of about grain iterations dynamically among all
// workers. Batches are striped round-robin across sockets; within a socket
// they are claimed dynamically. body may be called concurrently from many
// goroutines; each call receives the claiming worker (for replica selection
// and counter accounting) and a half-open sub-range.
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
	r.runLoop(loopShape{
		begin: begin, end: end, grain: g,
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
	r.runLoop(loopShape{
		begin: bounds[0], end: bounds[len(bounds)-1],
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
	}
	r.runLoop(sh, body)
}

// loopShape describes one parallel loop's batch decomposition: uniform
// batches of grain iterations over one range or over a list of spans with
// gaps, or explicit boundaries for weighted splits.
type loopShape struct {
	begin, end uint64
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
// into a range, for both loop engines.
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

// runLoop is the loop engine behind ParallelFor and ParallelForBounds:
// per-socket claim stripes, optional cross-socket stealing, and one
// LoopStats event per execution.
func (r *Runtime) runLoop(sh loopShape, body func(w *Worker, lo, hi uint64)) {
	if r.sched != nil {
		// Scheduled mode: hand the whole loop (including the single-batch
		// case — running it inline here would touch a worker shard the
		// scheduler's executor goroutine owns) to the shared scheduler.
		r.sched.run(r, sh, body)
		return
	}
	sockets := uint64(r.spec.Sockets)
	var start time.Time
	if r.rec != nil {
		start = time.Now()
	}
	defer func() {
		// One histogram observation and one registry fold per loop — the
		// same "once per loop" cadence as the claim counters, so telemetry
		// never adds synchronization to the batch hot path.
		if r.rec != nil {
			r.rec.Histogram(LoopHistogram).ObserveSince(start)
		}
		r.FoldArrayProfiles()
	}()

	if sh.numBatches == 1 {
		// Batch 0 belongs to socket 0's stripe (batch b -> socket b%sockets),
		// so run it on that socket's first worker — the same placement the
		// multi-batch path would produce — and attribute the claim to that
		// worker's real ID so the loop event records the actual socket.
		w := r.workers[r.firstOnSocket[0]]
		lo, hi := sh.batch(0)
		body(w, lo, hi)
		r.recordLoop(sh.begin, sh.end, sh.grain, func(claims []uint64) { claims[w.ID] = 1 })
		r.prof.AddLoop(1, 0)
		return
	}

	// Per-socket cursors over the batch stripes: socket s owns batches
	// s, s+sockets, s+2*sockets, ... — stripeLen[s] of them in total.
	cursors := make([]atomic.Uint64, sockets)
	stripeLen := make([]uint64, sockets)
	for s := uint64(0); s < sockets && s < sh.numBatches; s++ {
		stripeLen[s] = (sh.numBatches-1-s)/sockets + 1
	}

	// claims[i]/steals[i] count batches worker i executed (and how many of
	// those came from another socket's stripe); each slot is written only
	// by its owning worker's goroutine (after its claim loop exits), so no
	// synchronization beyond the final wg.Wait is needed.
	var claims, steals []uint64
	if r.rec != nil || r.prof != nil {
		claims = make([]uint64, len(r.workers))
		steals = make([]uint64, len(r.workers))
	}
	stealing := r.stealing

	run := func(w *Worker) {
		s := uint64(w.Socket)
		var claimed, stolen uint64
		defer func() {
			if claims != nil {
				claims[w.ID] = claimed
				steals[w.ID] = stolen
			}
		}()
		// Drain the home stripe.
		for {
			k := cursors[s].Add(1) - 1 // k-th batch of this socket's stripe
			if k >= stripeLen[s] {
				break
			}
			lo, hi := sh.batch(k*sockets + s)
			body(w, lo, hi)
			claimed++
		}
		if !stealing {
			// Stripe exhausted and stealing is off (the default): stop, so
			// per-socket counter attribution stays stripe-faithful for the
			// adaptivity profiler. See SetStealing.
			return
		}
		// Callisto's stealing step (§2.1): pick the victim stripe with the
		// most remaining claims and drain it through the same cursor the
		// owners use; re-select after every claim so concurrent thieves
		// spread across victims as the remaining-work ranking shifts.
		for {
			victim := -1
			var remaining uint64
			for v := uint64(0); v < sockets; v++ {
				if v == s {
					continue
				}
				if cur := cursors[v].Load(); cur < stripeLen[v] && stripeLen[v]-cur > remaining {
					victim, remaining = int(v), stripeLen[v]-cur
				}
			}
			if victim < 0 {
				return // every stripe drained
			}
			v := uint64(victim)
			k := cursors[v].Add(1) - 1
			if k >= stripeLen[v] {
				continue // lost the race to the last claim; re-select
			}
			lo, hi := sh.batch(k*sockets + v)
			body(w, lo, hi)
			claimed++
			stolen++
		}
	}

	// Launch one goroutine per simulated worker, bounded by a host-level
	// semaphore so a 72-thread machine does not swamp a small host.
	sem := make(chan struct{}, r.hostPar)
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run(w)
		}(w)
	}
	wg.Wait()
	if claims != nil {
		if r.rec != nil {
			r.rec.RecordLoop(obs.NewLoopStats(sh.begin, sh.end, sh.grain, claims, steals, r.workerSockets()))
		}
		if r.prof != nil {
			var claimed, stolen uint64
			for i := range claims {
				claimed += claims[i]
				stolen += steals[i]
			}
			r.prof.AddLoop(claimed, stolen)
		}
	}
}

// recordLoop emits a loop event for degenerate (single-batch) loops.
func (r *Runtime) recordLoop(begin, end, grain uint64, fill func(claims []uint64)) {
	if r.rec == nil {
		return
	}
	claims := make([]uint64, len(r.workers))
	fill(claims)
	r.rec.RecordLoop(obs.NewLoopStats(begin, end, grain, claims, nil, r.workerSockets()))
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

// workerSockets maps worker ID to NUMA node for loop-statistics events.
func (r *Runtime) workerSockets() []int {
	socks := make([]int, len(r.workers))
	for i, w := range r.workers {
		socks[i] = w.Socket
	}
	return socks
}

// SequentialFor runs body on a single worker over the whole range — the
// single-threaded baseline used by Figure 3's experiments. thread selects
// the simulated hardware thread.
func (r *Runtime) SequentialFor(thread int, begin, end uint64, body func(w *Worker, lo, hi uint64)) {
	if thread < 0 || thread >= len(r.workers) {
		panic(fmt.Sprintf("rts: thread %d out of range", thread))
	}
	if begin >= end {
		return
	}
	if r.sched != nil {
		// Under a scheduler the caller may not touch worker shards
		// directly; submit as one batch. The thread pin becomes advisory
		// (any executor may run it), which is fine for serving — the pin
		// only matters for the benchmark harness's first-touch
		// determinism, and that path never attaches a scheduler.
		r.sched.run(r, loopShape{begin: begin, end: end, grain: end - begin, numBatches: 1}, body)
		return
	}
	body(r.workers[thread], begin, end)
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
// barrier — not one atomic per batch. Each slot is written only by its
// owning worker's goroutine; ParallelFor's completion wait orders those
// writes before the merge, so the reduction needs no atomics at all.
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

// ReduceMin folds per-batch minima into per-worker partials and combines
// them after the loop barrier. Like ReduceSum, each padded slot is written
// only by its owning worker, so the reduction is synchronization-free and
// immune to host-level false sharing.
func (r *Runtime) ReduceMin(begin, end uint64, grain int64, body func(w *Worker, lo, hi uint64) uint64) uint64 {
	partials := make([]paddedUint64, len(r.workers))
	for i := range partials {
		partials[i].v = ^uint64(0)
	}
	r.ParallelFor(begin, end, grain, func(w *Worker, lo, hi uint64) {
		if v := body(w, lo, hi); v < partials[w.ID].v {
			partials[w.ID].v = v
		}
	})
	min := ^uint64(0)
	for i := range partials {
		if partials[i].v < min {
			min = partials[i].v
		}
	}
	return min
}

// ReduceMax is ReduceMin's dual, with identity 0.
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

// ReduceSumFloat64 is ReduceSum for float partials — the shape of
// PageRank's convergence-difference accumulation. Per-worker partials make
// the result deterministic for a fixed worker count up to the final merge
// order, which iterates workers in ID order.
func (r *Runtime) ReduceSumFloat64(begin, end uint64, grain int64, body func(w *Worker, lo, hi uint64) float64) float64 {
	partials := make([]paddedFloat64, len(r.workers))
	r.ParallelFor(begin, end, grain, func(w *Worker, lo, hi uint64) {
		partials[w.ID].v += body(w, lo, hi)
	})
	var total float64
	for i := range partials {
		total += partials[i].v
	}
	return total
}

// ReduceSumFloat64Bounds is ReduceSumFloat64 over explicit batch
// boundaries (see ParallelForBounds) — the shape of PageRank iterations
// over degree-weighted vertex ranges.
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
