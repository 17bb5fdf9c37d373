package rts

import (
	"testing"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
)

// TestParallelForRecordsLoopStats checks that an attached recorder gets
// one loop event per ParallelFor whose claim counts cover every batch
// exactly once, with the striping's per-socket attribution intact.
func TestParallelForRecordsLoopStats(t *testing.T) {
	rt := New(machine.X52Small())
	rec := obs.NewRecorder(16)
	rt.SetRecorder(rec)

	const n = 100_000
	const grain = 1000 // 100 batches, 50 per socket stripe
	sum := rt.ReduceSum(0, n, grain, func(w *Worker, lo, hi uint64) uint64 {
		return hi - lo
	})
	if sum != n {
		t.Fatalf("sum = %d, want %d", sum, n)
	}

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1 loop event", len(evs))
	}
	ls := evs[0].Loop
	if ls == nil {
		t.Fatalf("event is not a loop event: %+v", evs[0])
	}
	if ls.Batches != 100 {
		t.Fatalf("Batches = %d, want 100", ls.Batches)
	}
	if len(ls.BatchesPerWorker) != rt.Spec().HWThreads() {
		t.Fatalf("BatchesPerWorker has %d entries, want %d",
			len(ls.BatchesPerWorker), rt.Spec().HWThreads())
	}
	// Round-robin striping across 2 sockets: each stripe owns exactly half
	// the batches regardless of host scheduling.
	if len(ls.BatchesPerSocket) != 2 || ls.BatchesPerSocket[0] != 50 || ls.BatchesPerSocket[1] != 50 {
		t.Fatalf("BatchesPerSocket = %v, want [50 50]", ls.BatchesPerSocket)
	}
	if ls.GrainEfficiency != 1.0 {
		t.Fatalf("GrainEfficiency = %v, want 1.0 for an evenly divisible range", ls.GrainEfficiency)
	}
	if ls.Begin != 0 || ls.End != n || ls.Grain != grain {
		t.Fatalf("loop shape %d..%d/%d not recorded faithfully", ls.Begin, ls.End, ls.Grain)
	}
	if got := rec.Metrics().Histograms[LoopHistogram].Count; got != 1 {
		t.Fatalf("loop histogram counted %d loops, want 1", got)
	}
}

// TestParallelForSingleBatchRecords covers the degenerate single-batch
// fast path, which must still emit a loop event.
func TestParallelForSingleBatchRecords(t *testing.T) {
	rt := New(machine.UMA(4))
	rec := obs.NewRecorder(4)
	rt.SetRecorder(rec)
	rt.ParallelFor(0, 10, 1000, func(w *Worker, lo, hi uint64) {})
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Loop == nil {
		t.Fatalf("single-batch loop not recorded: %+v", evs)
	}
	if evs[0].Loop.Batches != 1 || evs[0].Loop.BatchesPerWorker[0] != 1 {
		t.Fatalf("single-batch claims wrong: %+v", evs[0].Loop)
	}
}

// TestParallelForNoRecorderNoEvents guards the default path: without a
// recorder, no claim accounting happens and nothing is recorded.
func TestParallelForNoRecorderNoEvents(t *testing.T) {
	rt := New(machine.UMA(4))
	rt.ParallelFor(0, 100_000, 0, func(w *Worker, lo, hi uint64) {})
	if rt.rec != nil {
		t.Fatal("recorder must default to nil")
	}
}

// TestSpanLoopStatsSkipGaps checks that a ParallelForSpans loop's event
// counts the iterations it ran, not the gap between its spans: two
// 64-index spans a mebi-index apart are 128 iterations in two batches,
// in the event and in the recorder's loop summary.
func TestSpanLoopStatsSkipGaps(t *testing.T) {
	rt := New(machine.X52Small())
	rec := obs.NewRecorder(4)
	rt.SetRecorder(rec)
	rt.ParallelForSpans([]Span{{0, 64}, {1 << 20, 1<<20 + 64}}, 2048, func(w *Worker, lo, hi uint64) {})
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Loop == nil {
		t.Fatalf("span loop not recorded: %+v", evs)
	}
	ls := evs[0].Loop
	if ls.Iterations != 128 || ls.Batches != 2 {
		t.Fatalf("Iterations = %d, Batches = %d, want 128 in 2", ls.Iterations, ls.Batches)
	}
	if want := 128.0 / (2 * 2048); ls.GrainEfficiency != want {
		t.Fatalf("GrainEfficiency = %v, want %v", ls.GrainEfficiency, want)
	}
	if got := rec.Metrics().Loops.Iterations; got != 128 {
		t.Fatalf("LoopSummary.Iterations = %d, want 128", got)
	}
}
