package rts

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
)

// newServingRuntime returns a runtime configured the way the query service
// runs it: stealing on, so any free worker may take any batch.
func newServingRuntime(spec *machine.Spec) *Runtime {
	rt := New(spec)
	rt.SetStealing(true)
	return rt
}

// TestLoopsMatchSequentialOracle pins the reduce wrappers and full range
// coverage against a plain sequential loop, with stealing off and on.
func TestLoopsMatchSequentialOracle(t *testing.T) {
	const n = 100_003
	var want uint64
	for i := uint64(0); i < n; i++ {
		want += i * i
	}
	for name, rt := range map[string]*Runtime{"stealing-off": New(machine.X52Small()), "stealing-on": newServingRuntime(machine.X52Small())} {
		got := rt.ReduceSum(0, n, 1024, func(w *Worker, lo, hi uint64) uint64 {
			var s uint64
			for i := lo; i < hi; i++ {
				s += i * i
			}
			return s
		})
		if got != want {
			t.Fatalf("%s: ReduceSum = %d, sequential = %d", name, got, want)
		}
		if got := rt.ReduceMax(0, n, 1024, func(w *Worker, lo, hi uint64) uint64 { return (hi - 1) * (hi - 1) }); got != (n-1)*(n-1) {
			t.Fatalf("%s: ReduceMax = %d, sequential = %d", name, got, uint64((n-1)*(n-1)))
		}
		bounds := WeightedBounds(0, n, 1024, func(v uint64) uint64 { return v })
		if got := rt.ReduceSumFloat64Bounds(bounds, func(w *Worker, lo, hi uint64) float64 { return float64(hi - lo) }); got != n {
			t.Fatalf("%s: ReduceSumFloat64Bounds = %v, sequential = %d", name, got, n)
		}

		// Every index covered exactly once, including the ragged tail and
		// the single-batch path.
		for _, total := range []uint64{1, 5, DefaultGrain, DefaultGrain + 1, 3*DefaultGrain + 17} {
			seen := make([]atomic.Uint32, total)
			rt.ParallelFor(0, total, 0, func(w *Worker, lo, hi uint64) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("%s total=%d: index %d covered %d times", name, total, i, c)
				}
			}
		}
	}
}

// TestSchedulerConcurrentLoops drives many goroutines through the same
// runtime at once (the serving shape) and checks every loop's reduction.
// Run with -race this also polices the one-writer-per-worker invariant
// the ownership flag exists to preserve.
func TestSchedulerConcurrentLoops(t *testing.T) {
	rt := newServingRuntime(machine.X52Small())
	const (
		clients = 12
		loops   = 8
		n       = 40_000
	)
	want := uint64(n) * uint64(n-1) / 2
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(prio int) {
			defer wg.Done()
			view := rt.WithPriority(prio)
			for i := 0; i < loops; i++ {
				got := view.ReduceSum(0, n, 512, func(w *Worker, lo, hi uint64) uint64 {
					var s uint64
					for j := lo; j < hi; j++ {
						s += j
					}
					return s
				})
				if got != want {
					errs <- "bad sum"
					return
				}
			}
		}(c % 3)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSchedulerPriorityPreemption checks batch-granular preemption: with
// all but one executor wedged inside low-priority batches, the free
// executor must switch to a newly submitted high-priority loop before
// touching the low loop's remaining batches. The batch start order is
// logged: no low-priority batch may start between the first and last
// high-priority batch, and some low-priority work must still run after
// the high loop (proving it was pending, not already drained).
func TestSchedulerPriorityPreemption(t *testing.T) {
	rt := newServingRuntime(machine.UMA(4))
	workers := len(rt.Workers())

	gate := make(chan struct{})                   // holds the wedged executors
	wedgeTokens := make(chan struct{}, workers-1) // how many batches wedge
	wedged := make(chan struct{}, workers-1)      // signals each wedge
	for i := 0; i < workers-1; i++ {
		wedgeTokens <- struct{}{}
	}

	var mu sync.Mutex
	var order []byte
	logStart := func(kind byte) {
		mu.Lock()
		order = append(order, kind)
		mu.Unlock()
	}

	low := rt.WithPriority(0)
	high := rt.WithPriority(10)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		low.ParallelFor(0, uint64(workers*8), 1, func(w *Worker, lo, hi uint64) {
			select {
			case <-wedgeTokens:
				logStart('L')
				wedged <- struct{}{}
				<-gate
			default:
				logStart('l')
				// Slow the free executor down so low batches are still
				// pending when the high loop arrives.
				time.Sleep(200 * time.Microsecond)
			}
		})
	}()

	for i := 0; i < workers-1; i++ {
		<-wedged
	}
	// One executor is still free; submit the high-priority loop and let it
	// race the free executor's remaining low batches.
	high.ParallelFor(0, uint64(workers*4), 1, func(w *Worker, lo, hi uint64) {
		logStart('H')
	})
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	first, last := -1, -1
	for i, k := range order {
		if k == 'H' {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		t.Fatalf("no high-priority batches ran; order %q", order)
	}
	for i := first; i <= last; i++ {
		if order[i] != 'H' {
			t.Fatalf("low-priority batch started during the high-priority loop: order %q", order)
		}
	}
	lowAfter := 0
	for _, k := range order[last+1:] {
		if k == 'l' {
			lowAfter++
		}
	}
	if lowAfter == 0 {
		t.Fatalf("no low-priority batches were pending behind the high loop (test vacuous): order %q", order)
	}
}

// TestParallelForSpansCoverage runs gap-list loops with stealing off and
// on: every
// index of every span is visited exactly once, nothing in a gap or outside
// the list is touched, no batch crosses a span's end or exceeds the grain,
// and the list is one loop — the profile counts one loop whose claims are
// the spans' batch counts — including the single-batch and empty lists.
// Under -race this also covers the home-stripe and the steal claim path
// for the list shape.
func TestParallelForSpansCoverage(t *testing.T) {
	const n = 50_000
	fragmented := []Span{
		{Lo: 0, Hi: 1}, {Lo: 64, Hi: 2112}, {Lo: 2112, Hi: 4096}, // adjacent spans: no gap needed
		{Lo: 8192, Hi: 10240 + 5},
	}
	for lo := uint64(12_288); lo < 30_000; lo += 4096 { // many short runs
		fragmented = append(fragmented, Span{Lo: lo, Hi: lo + 100})
	}
	fragmented = append(fragmented, Span{Lo: 30_000, Hi: 40_001}, Span{Lo: n - 7, Hi: n})
	lists := map[string][]Span{
		"empty":      nil,
		"single":     {{Lo: 4096, Hi: 4160}},
		"one-span":   {{Lo: 100, Hi: 9_000}},
		"fragmented": fragmented,
	}
	engines := map[string]*Runtime{
		"stealing-off": New(machine.X52Small()),
		"stealing-on":  newServingRuntime(machine.X52Small()),
	}
	for ename, rt := range engines {
		for lname, spans := range lists {
			for _, grain := range []int64{0, 64, 1000} {
				g := uint64(grain)
				if grain == 0 {
					g = DefaultGrain
				}
				want := make([]uint32, n)
				var batches uint64
				for _, sp := range spans {
					batches += (sp.Hi - sp.Lo + g - 1) / g
					for i := sp.Lo; i < sp.Hi; i++ {
						want[i] = 1
					}
				}
				seen := make([]atomic.Uint32, n)
				var misshapen atomic.Uint32
				prof := obs.NewQueryProfileAt(1, time.Now())
				rt.WithProfile(prof).ParallelForSpans(spans, grain, func(w *Worker, lo, hi uint64) {
					inSpan := false
					for _, sp := range spans {
						inSpan = inSpan || (sp.Lo <= lo && hi <= sp.Hi)
					}
					if !inSpan || lo >= hi || hi-lo > g {
						misshapen.Add(1)
					}
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				})
				for i := range seen {
					if got := seen[i].Load(); got != want[i] {
						t.Fatalf("%s/%s grain %d: index %d visited %d times, want %d", ename, lname, grain, i, got, want[i])
					}
				}
				if misshapen.Load() != 0 {
					t.Errorf("%s/%s grain %d: %d batches crossed a span end or exceeded the grain", ename, lname, grain, misshapen.Load())
				}
				prof.FinalizeAt("ok", 200, time.Now())
				loops := uint64(1)
				if len(spans) == 0 {
					loops = 0
				}
				if prof.Loops != loops || prof.MorselsClaimed != batches {
					t.Errorf("%s/%s grain %d: loops=%d claimed=%d, want %d loop(s) of %d batches",
						ename, lname, grain, prof.Loops, prof.MorselsClaimed, loops, batches)
				}
			}
		}
	}
}

func TestParallelForSpansPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(machine.UMA(2)).ParallelForSpans([]Span{{Lo: 0, Hi: 10}, {Lo: 9, Hi: 20}}, 0, func(w *Worker, lo, hi uint64) {})
}
