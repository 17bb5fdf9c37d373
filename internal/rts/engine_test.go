package rts

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
)

// waitForGoroutines fails the test unless the process's goroutine count
// comes back down to baseline: executors exit on their own, a moment after
// the loop that started them returns.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStripeFidelityUnderConcurrency pins invariant 1: with stealing off,
// batch b of every loop runs on a worker of socket b % sockets — also with
// two submitters of different priority sharing the pool — and a one-batch
// loop runs on socket 0.
func TestStripeFidelityUnderConcurrency(t *testing.T) {
	for _, spec := range []*machine.Spec{machine.X52Small(), machine.X58Callisto()} {
		rt := New(spec)
		sockets := uint64(spec.Sockets)
		var misplaced, batches atomic.Uint64
		var wg sync.WaitGroup
		for _, prio := range []int{0, 5} {
			wg.Add(1)
			go func(view *Runtime) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					for _, n := range []uint64{1, 3, sockets, 600} {
						view.ParallelFor(0, n, 1, func(w *Worker, lo, hi uint64) {
							batches.Add(1)
							if uint64(w.Socket) != lo%sockets || hi != lo+1 {
								misplaced.Add(1)
							}
						})
					}
				}
			}(rt.WithPriority(prio))
		}
		wg.Wait()
		if want := 2 * 40 * (1 + 3 + sockets + 600); batches.Load() != want {
			t.Errorf("%s: %d batches ran, want %d", spec.Name, batches.Load(), want)
		}
		if misplaced.Load() != 0 {
			t.Errorf("%s: %d batches ran off their stripe's socket", spec.Name, misplaced.Load())
		}
	}
}

// TestWorkerIdentityIsExclusive pins invariant 3: bodies bump a plain,
// non-atomic slot per worker from many concurrent submitters mixing inline
// one-batch loops with small and large ones. The totals are exact only if
// a worker is never two goroutines at once, and -race sees it if it is.
func TestWorkerIdentityIsExclusive(t *testing.T) {
	rt := newServingRuntime(machine.X52Small())
	slots := make([]paddedUint64, len(rt.Workers()))
	const submitters, rounds = 8, 60
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(view *Runtime) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, n := range []uint64{1, 3, 600} {
					view.ParallelFor(0, n, 1, func(w *Worker, lo, hi uint64) { slots[w.ID].v++ })
				}
			}
		}(rt.WithPriority(c % 3))
	}
	wg.Wait()
	var total uint64
	for i := range slots {
		total += slots[i].v
	}
	if want := uint64(submitters * rounds * (1 + 3 + 600)); total != want {
		t.Fatalf("per-worker slots sum to %d, want %d", total, want)
	}
}

// TestRuntimeHoldsNoGoroutinesWhenIdle pins the lifecycle: a runtime nobody
// closes leaves nothing behind once its loops have returned.
func TestRuntimeHoldsNoGoroutinesWhenIdle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		rt := New(machine.X52Small())
		rt.SetStealing(i%2 == 0)
		for _, n := range []uint64{1, 7, 300} {
			if got := rt.ReduceSum(0, n, 1, func(w *Worker, lo, hi uint64) uint64 { return hi - lo }); got != n {
				t.Fatalf("runtime %d: sum = %d, want %d", i, got, n)
			}
		}
	}
	waitForGoroutines(t, baseline)
}

// TestServingStealCountsAreReal checks that a query profile sees the
// engine's real steal counts: a bounds loop whose odd batches (socket 1's
// stripe) are slow leaves socket 0's workers idle while socket 1's stripe
// still has batches, so with stealing on they must take some; with
// stealing off they must not.
func TestServingStealCountsAreReal(t *testing.T) {
	bounds := []uint64{0}
	for b := 0; b < 64; b++ {
		width := uint64(1)
		if b%2 == 1 {
			width = 1000
		}
		bounds = append(bounds, bounds[b]+width)
	}
	for _, stealing := range []bool{true, false} {
		rt := New(machine.X52Small())
		rt.SetStealing(stealing)
		prof := obs.NewQueryProfileAt(1, time.Now())
		var covered atomic.Uint64
		rt.WithProfile(prof).ParallelForBounds(bounds, func(w *Worker, lo, hi uint64) {
			if hi-lo > 1 {
				time.Sleep(500 * time.Microsecond)
			}
			covered.Add(hi - lo)
		})
		prof.FinalizeAt("ok", 200, time.Now())
		if covered.Load() != bounds[64] {
			t.Fatalf("stealing=%v: covered %d of %d", stealing, covered.Load(), bounds[64])
		}
		if prof.Loops != 1 || prof.MorselsClaimed != 64 {
			t.Errorf("stealing=%v: loops=%d claimed=%d, want 1 loop of 64", stealing, prof.Loops, prof.MorselsClaimed)
		}
		if stealing && prof.MorselsStolen == 0 {
			t.Errorf("stealing on: no batch recorded as stolen")
		}
		if !stealing && prof.MorselsStolen != 0 {
			t.Errorf("stealing off: %d batches recorded as stolen", prof.MorselsStolen)
		}
	}
}

// TestBarrierIsQuiescent pins invariant 2: when a loop returns, no worker
// touches a shard again, so the caller may snapshot and reset the fabric
// from its own goroutine (under -race a late shard write by an executor
// would collide with these).
func TestBarrierIsQuiescent(t *testing.T) {
	rt := New(machine.X52Small())
	for i := 1; i <= 50; i++ {
		for _, n := range []uint64{1, 2, 300} {
			rt.ParallelFor(0, n, 1, func(w *Worker, lo, hi uint64) {
				w.Counters.Instr(1)
			})
			if got := totalInstructions(rt.Fabric().Snapshot()); got != n {
				t.Fatalf("round %d: %d instructions counted at the barrier, want %d", i, got, n)
			}
			rt.Fabric().Reset()
		}
	}
}

// TestBodyPanicReachesSubmitter pins the panic rule: a body that panics
// does not take the process down; the loop's caller panics with the same
// value, a loop in flight beside it is unaffected, the runtime runs the
// next loop normally, and no goroutine is left behind.
func TestBodyPanicReachesSubmitter(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rt := newServingRuntime(machine.X52Small())
	boom := errors.New("boom")
	panicking := func(batches uint64) (got any) {
		defer func() { got = recover() }()
		rt.ParallelFor(0, batches, 1, func(w *Worker, lo, hi uint64) {
			if lo == 17%batches {
				panic(boom)
			}
		})
		return nil
	}
	coveredOnce := func(view *Runtime, n uint64, pause time.Duration) bool {
		seen := make([]atomic.Uint32, n)
		view.ParallelFor(0, n, 1, func(w *Worker, lo, hi uint64) {
			time.Sleep(pause)
			seen[lo].Add(1)
		})
		for i := range seen {
			if seen[i].Load() != 1 {
				return false
			}
		}
		return true
	}

	// Alone on the runtime: 64 batches (batch 17 panics) and the inline
	// one-batch path.
	for _, batches := range []uint64{64, 1} {
		if got := panicking(batches); got != boom {
			t.Fatalf("%d batches: caller recovered %v, want the body's panic value", batches, got)
		}
		if !coveredOnce(rt, 500, 0) {
			t.Fatalf("loop after a %d-batch panic did not cover its range exactly once", batches)
		}
	}

	// Beside a slow loop from another submitter.
	bystander := make(chan bool)
	go func() { bystander <- coveredOnce(rt.WithPriority(1), 200, 50*time.Microsecond) }()
	for i := 0; i < 20; i++ {
		if got := panicking(64); got != boom {
			t.Fatalf("round %d: caller recovered %v, want the body's panic value", i, got)
		}
	}
	if !<-bystander {
		t.Fatal("a loop in flight beside the panicking one did not cover its range exactly once")
	}
	waitForGoroutines(t, baseline)
}

// TestCloseWaitsThenRefuses: Close returns only after the loop in flight
// has, and a loop submitted afterwards panics in its caller.
func TestCloseWaitsThenRefuses(t *testing.T) {
	rt := New(machine.X52Small())
	running := make(chan struct{})
	var once sync.Once
	go func() {
		rt.ParallelFor(0, 64, 1, func(w *Worker, lo, hi uint64) {
			once.Do(func() { close(running) })
			time.Sleep(200 * time.Microsecond)
		})
	}()
	<-running
	rt.Close()
	if rt.ActiveLoops() != 0 {
		t.Fatalf("Close returned with %d loops in flight", rt.ActiveLoops())
	}
	for _, w := range rt.Workers() {
		if w.held.Load() {
			t.Fatalf("Close returned while worker %d is still held", w.ID)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("loop submitted to a closed runtime did not panic")
		}
	}()
	rt.ParallelFor(0, 10, 1, func(w *Worker, lo, hi uint64) {})
}
