// The loop engine: the one path from ParallelFor* to a body call.
//
// A loop is cut into batches; batch b belongs to the stripe of socket
// b % sockets. A worker drains its home stripe first and — only if the
// submitting runtime has stealing on — then claims from the stripe with the
// most left, counted as a steal. Loops from any number of goroutines share
// the pool: before every claim a worker re-picks the highest-priority
// admitted loop (earliest first within a priority) that still has a batch
// it may claim, so preemption is batch-granular.
//
// Being worker w is holding w's ownership flag. Whoever holds it — an
// executor goroutine, or a submitter, which works on its own loop as an
// idle socket-0 worker instead of sleeping through it — is the only
// goroutine that runs bodies as w, writes w.Counters or indexes per-worker
// scratch by w.ID. An executor lives while its worker has something to
// claim, so an idle runtime owns no goroutine. The rules that make this
// safe:
//
//   - Stripe fidelity: with stealing off, batch b only ever runs on a
//     worker of socket b % sockets, whoever else is submitting.
//   - Quiescent barrier: a worker reports its batches done only after its
//     last body call in the loop returned, while it still holds the flag,
//     so nothing touches a shard on behalf of a loop that has returned.
//     Shards carry only the simulated PCM counters; array telemetry goes
//     straight to each array's atomic counter block (obs.ArrayCounters).
//   - No lost wake-up: a submitter publishes its loop, then takes idle
//     flags; a holder drops its flag, then looks for work (yield). One of
//     the two always sees the other.
//   - A loop can always finish: every non-empty stripe gets a worker of
//     its own socket unless all of them are already held, and each of
//     those looks again before it goes.
package rts

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
)

// engine is the state every view of one Runtime shares: the simulated
// memory, the worker pool and the set of admitted loops.
type engine struct {
	// mem is the runtime's memory (see SetArrayProfiling for the array
	// registry it may carry).
	mem     *memsim.Memory
	workers []*Worker
	// sockets[i] is worker i's socket, for loop-statistics events.
	sockets []int
	// bySocket[s] lists the workers pinned to socket s, lowest ID first.
	bySocket [][]*Worker
	// active is the immutable list of admitted, unfinished loops in
	// admission order. Workers only load it; run swaps in a copy under mu
	// to admit and to retire, so the claim path never takes a lock.
	active atomic.Pointer[[]*schedLoop]
	mu     sync.Mutex
	closed atomic.Bool
}

// stripe is one socket's share of a loop's batches: batches s, s+sockets,
// s+2*sockets, … — n of them, next the first unclaimed. Padded to a cache
// line so sockets claiming side by side do not share one.
type stripe struct {
	next atomic.Uint64
	n    uint64
	_    [48]byte
}

// schedLoop is one loop in flight: its shape, body and claim state.
type schedLoop struct {
	shape    loopShape
	body     func(w *Worker, lo, hi uint64)
	prio     int
	stealing bool
	stripes  []stripe

	// done counts batches that have returned or were cancelled; whoever
	// brings it to shape.numBatches opens the barrier the submitter waits
	// on. The atomics order every worker's plain writes (claims, Reduce*
	// partials, shards) before the submitter's reads.
	done    atomic.Uint64
	barrier sync.WaitGroup

	// stolen totals cross-stripe claims; claims[i]/steals[i] break batches
	// down by worker and exist only when a recorder wants the loop event.
	// Workers add to them when they leave the loop, not per batch.
	stolen         atomic.Uint64
	claims, steals []uint64
	// failed holds the first value a body panicked with.
	failed atomic.Pointer[any]
}

// source returns the stripe a worker on socket home claims from next: its
// home stripe while that has batches, otherwise — if the loop may steal —
// the stripe with the most left; -1 when the loop has nothing for it.
func (l *schedLoop) source(home int) int {
	if st := &l.stripes[home]; st.next.Load() < st.n {
		return home
	}
	victim := -1
	if l.stealing {
		var most uint64
		for v := range l.stripes {
			st := &l.stripes[v]
			if cur := st.next.Load(); cur < st.n && st.n-cur > most {
				victim, most = v, st.n-cur
			}
		}
	}
	return victim
}

// call runs batch b as w — the one place a loop body is called. A panic
// stops here, not at the top of a goroutine nobody can catch: the first
// value is kept for the submitter and the loop's unclaimed batches are
// cancelled, so the barrier opens as soon as the running ones return.
func (l *schedLoop) call(w *Worker, b uint64) {
	returned := false
	defer func() {
		if returned {
			return
		}
		if p := recover(); p != nil && l.failed.CompareAndSwap(nil, &p) {
			var cancelled uint64
			for s := range l.stripes {
				st := &l.stripes[s]
				if cur := st.next.Swap(st.n); cur < st.n {
					cancelled += st.n - cur
				}
			}
			l.complete(cancelled)
		}
	}()
	lo, hi := l.shape.batch(b)
	l.body(w, lo, hi)
	returned = true
}

// complete reports n more batches finished.
func (l *schedLoop) complete(n uint64) {
	if l.done.Add(n) == l.shape.numBatches {
		l.barrier.Done()
	}
}

// pick returns the loop w should claim from next, and the stripe: the
// highest-priority admitted loop with a batch w may claim, the earliest
// admitted among equals. Lock-free.
func (e *engine) pick(w *Worker) (best *schedLoop, from int) {
	for _, l := range *e.active.Load() {
		if best != nil && l.prio <= best.prio {
			continue
		}
		if s := l.source(w.Socket); s >= 0 {
			best, from = l, s
		}
	}
	return best, from
}

// serve runs batches as w, whose flag the caller holds, until no admitted
// loop has one w may claim — or, for a submitter working on its own loop,
// until w's next batch would come from any loop but only.
func (e *engine) serve(w *Worker, only *schedLoop) {
	var cur *schedLoop
	var ran, stolen uint64
	for {
		l, s := e.pick(w)
		if only != nil && l != only {
			l = nil
		}
		if l != cur {
			e.leave(w, cur, ran, stolen)
			cur, ran, stolen = l, 0, 0
		}
		if l == nil {
			return
		}
		st := &l.stripes[s]
		k := st.next.Add(1) - 1
		if k >= st.n {
			continue // lost the race for the stripe's last batch
		}
		if ran == 0 && k+1 < st.n {
			// First batch here and more behind it in the stripe: pass the
			// launch on, so a loop gets workers as fast as it can use them
			// and one that is over in a microsecond never pays for a pool.
			e.start(e.bySocket[w.Socket])
		}
		l.call(w, k*uint64(len(l.stripes))+uint64(s))
		ran++
		if s != w.Socket {
			stolen++
		}
	}
}

// leave ends w's stay in l after ran batches: per-worker counts, then the
// completion report (the quiescent barrier).
func (e *engine) leave(w *Worker, l *schedLoop, ran, stolen uint64) {
	if ran == 0 {
		return
	}
	if l.claims != nil {
		l.claims[w.ID] += ran
		l.steals[w.ID] += stolen
	}
	if stolen > 0 {
		l.stolen.Add(stolen)
	}
	l.complete(ran)
}

// yield drops w's flag and takes it straight back if a loop admitted in
// the meantime has work for w — its submitter saw the flag held and
// started nobody. It reports whether the caller still holds w.
func (e *engine) yield(w *Worker) bool {
	w.held.Store(false)
	l, _ := e.pick(w)
	return l != nil && w.held.CompareAndSwap(false, true)
}

// execute is an executor goroutine: it owns w until w has nothing to claim.
func (e *engine) execute(w *Worker) {
	for {
		e.serve(w, nil)
		if !e.yield(w) {
			return
		}
	}
}

// take claims the flag of the first idle worker in ws, nil if all are held.
func take(ws []*Worker) *Worker {
	for _, w := range ws {
		// Look before the swap: a failed swap would still pull the line
		// the holder reads w.Socket and w.Counters from on every batch.
		if !w.held.Load() && w.held.CompareAndSwap(false, true) {
			return w
		}
	}
	return nil
}

// start gives an idle worker of ws to a new executor, if there is one. A
// held worker needs none: its holder yields before it goes.
func (e *engine) start(ws []*Worker) bool {
	w := take(ws)
	if w != nil {
		go e.execute(w)
	}
	return w != nil
}

// run executes one loop to completion on behalf of view r, which carries
// the priority, the stealing policy, the recorder and the query profile,
// and blocks the caller until every batch has returned. It holds one
// reader pin on the memory for the whole loop (see memsim.Memory.Pin), so
// a body may keep a View or replica it loaded across its batches while a
// Reencode or Migrate retires that representation.
func (r *Runtime) run(sh loopShape, body func(w *Worker, lo, hi uint64)) {
	e := r.engine
	if e.closed.Load() {
		panic("rts: loop submitted to a closed runtime")
	}
	e.mem.Pin()
	defer e.mem.Unpin()
	var start time.Time
	l := &schedLoop{shape: sh, body: body, prio: r.prio, stealing: r.stealing}
	l.barrier.Add(1)
	if r.rec != nil {
		start = time.Now()
		counts := make([]uint64, 2*len(e.workers))
		l.claims, l.steals = counts[:len(e.workers)], counts[len(e.workers):]
	}

	// The submitter works too, as an idle socket-0 worker if there is one
	// (batch 0 is socket 0's, so that socket always has something). A
	// one-batch loop then needs nobody else: no admission, no goroutine,
	// no wake-up.
	me := take(e.bySocket[0])
	admitted := me == nil || sh.numBatches > 1
	if !admitted {
		l.call(me, 0)
		e.leave(me, l, 1, 0)
	} else {
		sockets := uint64(len(e.bySocket))
		l.stripes = make([]stripe, sockets)
		for s := uint64(0); s < sockets && s < sh.numBatches; s++ {
			l.stripes[s].n = (sh.numBatches-1-s)/sockets + 1
		}
		e.mu.Lock()
		next := append(slices.Clip(*e.active.Load()), l)
		e.active.Store(&next)
		e.mu.Unlock()

		// One executor per non-empty stripe the submitter is not already
		// on, from the stripe's own socket; serve passes the launch on
		// while batches remain. With stealing on, a stripe whose socket is
		// fully held borrows an idle worker from anywhere.
		short := 0
		for s, ws := range e.bySocket {
			if l.stripes[s].n > 0 && (s > 0 || me == nil) && !e.start(ws) {
				short++
			}
		}
		for l.stealing && short > 0 && e.start(e.workers) {
			short--
		}
		if me != nil {
			e.serve(me, l)
		}
	}
	if me != nil && e.yield(me) {
		go e.execute(me)
	}
	l.barrier.Wait()

	if admitted {
		e.mu.Lock()
		rest := slices.DeleteFunc(slices.Clone(*e.active.Load()), func(o *schedLoop) bool { return o == l })
		e.active.Store(&rest)
		e.mu.Unlock()
	}
	if p := l.failed.Load(); p != nil {
		// A body panicked: raise its value again here, where the caller's
		// defers (and net/http's recover) can see it.
		panic(*p)
	}
	if r.rec != nil {
		r.rec.Histogram(LoopHistogram).ObserveSince(start)
		r.rec.RecordLoop(obs.NewLoopStats(sh.begin, sh.end, sh.iterations, sh.grain, l.claims, l.steals, e.sockets))
	}
	r.prof.AddLoop(sh.numBatches, l.stolen.Load())
}

// ActiveLoops reports how many admitted loops are in flight — a lock-free
// load serving layers use as a live concurrency signal.
func (e *engine) ActiveLoops() int { return len(*e.active.Load()) }

// Close refuses further loops (submitting one panics) and returns once the
// loops already admitted have finished and no goroutine holds a worker. A
// runtime that is simply dropped needs no Close.
func (e *engine) Close() {
	e.closed.Store(true)
	for e.ActiveLoops() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	for _, w := range e.workers {
		for w.held.Load() {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
