package rts

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/machine"
)

// BenchmarkDispatch sizes loop dispatch — admission, launch, claims and
// the barrier around an empty body — without the measured harness:
// batches {1, 2, 4, 64, 600} × {back-to-back, after a 300 µs idle gap, as
// a served query sees the pool} × {idle pool, one long low-priority loop
// running in the background}. The reported ns/loop is timed around the
// loop only, so the gap itself is never counted. Run it with the
// benchmark's CPU count: go test ./internal/rts -run '^$' -bench Dispatch -cpu 2.
//
// Only the idle/* cells can resolve a dispatch change. On a 2-vCPU host
// the busy/* cells are bimodal: one binary read anywhere from 2 815 to
// 197 211 ns/loop on busy/b2b/batches=1 across 8 rounds, so a busy/*
// cell shows only a change far larger than that spread.
func BenchmarkDispatch(b *testing.B) {
	for _, busy := range []bool{false, true} {
		for _, gap := range []time.Duration{0, 300 * time.Microsecond} {
			for _, batches := range []uint64{1, 2, 4, 64, 600} {
				pool, pace := "idle", "b2b"
				if busy {
					pool = "busy"
				}
				if gap > 0 {
					pace = "gap"
				}
				b.Run(fmt.Sprintf("%s/%s/batches=%d", pool, pace, batches), func(b *testing.B) {
					benchDispatch(b, batches, gap, busy)
				})
			}
		}
	}
}

func benchDispatch(b *testing.B, batches uint64, gap time.Duration, busy bool) {
	rt := New(machine.X52Small())
	rt.SetStealing(true) // the serving configuration: any free worker may take any batch
	if busy {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			low := rt.WithPriority(-1)
			for !stop.Load() {
				low.ParallelFor(0, 4096, 1, func(*Worker, uint64, uint64) {
					for t := time.Now(); time.Since(t) < 2*time.Microsecond; {
					}
				})
			}
		}()
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()
	}
	body := func(*Worker, uint64, uint64) {}
	loop := func() { rt.ParallelFor(0, batches, 1, body) }
	loop()
	var inLoop time.Duration
	b.ResetTimer()
	if gap == 0 {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			loop()
		}
		inLoop = time.Since(start)
	} else {
		for i := 0; i < b.N; i++ {
			time.Sleep(gap)
			start := time.Now()
			loop()
			inLoop += time.Since(start)
		}
	}
	b.ReportMetric(float64(inLoop.Nanoseconds())/float64(b.N), "ns/loop")
}
