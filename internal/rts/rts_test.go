package rts

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
)

func TestNewCreatesAllWorkers(t *testing.T) {
	r := New(machine.X52Small())
	if got := len(r.Workers()); got != 32 {
		t.Fatalf("workers = %d, want 32", got)
	}
	// Socket-major pinning.
	if ws := r.Workers(); ws[0].Socket != 0 || ws[16].Socket != 1 {
		t.Errorf("worker pinning wrong: w0=%d w16=%d", ws[0].Socket, ws[16].Socket)
	}
	for _, w := range r.Workers() {
		if w.Counters == nil || w.Counters.Socket != w.Socket {
			t.Fatalf("worker %d shard mis-pinned", w.ID)
		}
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	r := New(machine.X52Small())
	const n = 100_000
	seen := make([]int32, n)
	r.ParallelFor(0, n, 777, func(w *Worker, lo, hi uint64) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParallelForOffsetRange(t *testing.T) {
	r := New(machine.UMA(4))
	var count atomic.Uint64
	r.ParallelFor(1000, 5000, 64, func(w *Worker, lo, hi uint64) {
		if lo < 1000 || hi > 5000 {
			t.Errorf("range [%d,%d) escapes [1000,5000)", lo, hi)
		}
		count.Add(hi - lo)
	})
	if count.Load() != 4000 {
		t.Errorf("iterations = %d, want 4000", count.Load())
	}
}

func TestParallelForEmptyRange(t *testing.T) {
	r := New(machine.UMA(2))
	called := false
	r.ParallelFor(5, 5, 0, func(w *Worker, lo, hi uint64) { called = true })
	r.ParallelFor(7, 3, 0, func(w *Worker, lo, hi uint64) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestParallelForSingleBatch(t *testing.T) {
	r := New(machine.X52Small())
	var calls atomic.Int32
	r.ParallelFor(0, 10, 100, func(w *Worker, lo, hi uint64) {
		calls.Add(1)
		if lo != 0 || hi != 10 {
			t.Errorf("range [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1", calls.Load())
	}
}

func TestParallelForStripesAcrossSockets(t *testing.T) {
	// With 2 sockets and equal-size batches, the per-socket iteration split
	// must be close to 50/50 (round-robin stripes).
	r := New(machine.X52Small())
	var perSocket [2]atomic.Uint64
	const n = 1 << 20
	r.ParallelFor(0, n, 1024, func(w *Worker, lo, hi uint64) {
		perSocket[w.Socket].Add(hi - lo)
	})
	s0, s1 := perSocket[0].Load(), perSocket[1].Load()
	if s0+s1 != n {
		t.Fatalf("total = %d, want %d", s0+s1, n)
	}
	// Work stealing may skew the split slightly on a small host; allow 10%.
	if diff := int64(s0) - int64(s1); diff > n/10 || diff < -n/10 {
		t.Errorf("socket split %d/%d too skewed", s0, s1)
	}
}

func TestReduceSum(t *testing.T) {
	r := New(machine.X52Large())
	const n = 1 << 18
	data := make([]uint64, n)
	var want uint64
	for i := range data {
		data[i] = uint64(i)
		want += uint64(i)
	}
	got := r.ReduceSum(0, n, 4096, func(w *Worker, lo, hi uint64) uint64 {
		var s uint64
		for i := lo; i < hi; i++ {
			s += data[i]
		}
		return s
	})
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestReduceSumSingleBatch(t *testing.T) {
	r := New(machine.X52Small())
	got := r.ReduceSum(0, 10, 100, func(w *Worker, lo, hi uint64) uint64 {
		return hi - lo
	})
	if got != 10 {
		t.Errorf("sum = %d, want 10", got)
	}
}

func TestReduceMinMax(t *testing.T) {
	r := New(machine.X52Large())
	const n = 1 << 16
	data := make([]uint64, n)
	var wantMax uint64
	for i := range data {
		data[i] = uint64(i*2654435761) % (1 << 30)
		if data[i] > wantMax {
			wantMax = data[i]
		}
	}
	rangeMax := func(w *Worker, lo, hi uint64) uint64 {
		var m uint64
		for i := lo; i < hi; i++ {
			if data[i] > m {
				m = data[i]
			}
		}
		return m
	}
	if got := r.ReduceMax(0, n, 2048, rangeMax); got != wantMax {
		t.Errorf("ReduceMax = %d, want %d", got, wantMax)
	}
	// An empty range returns the fold identity.
	if got := r.ReduceMax(5, 5, 0, rangeMax); got != 0 {
		t.Errorf("empty ReduceMax = %d", got)
	}
}

func TestParallelForSingleBatchRunsOnSocketZeroWorker(t *testing.T) {
	// Batch 0 belongs to socket 0's stripe, so the degenerate single-batch
	// loop must execute on a socket-0 worker and attribute its claim to
	// that worker's real ID in the loop event.
	r := New(machine.X52Small())
	rec := obs.NewRecorder(0)
	r.SetRecorder(rec)
	var gotWorker *Worker
	r.ParallelFor(0, 10, 100, func(w *Worker, lo, hi uint64) { gotWorker = w })
	if gotWorker == nil {
		t.Fatal("body not called")
	}
	if gotWorker.Socket != 0 {
		t.Errorf("single batch ran on socket %d, want 0", gotWorker.Socket)
	}
	events := rec.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	ls := events[0].Loop
	if ls == nil {
		t.Fatalf("event %v is not a loop event", events[0].Kind)
	}
	for id, claims := range ls.BatchesPerWorker {
		want := uint64(0)
		if id == gotWorker.ID {
			want = 1
		}
		if claims != want {
			t.Errorf("claims[%d] = %d, want %d", id, claims, want)
		}
	}
}

func TestCountersAccumulateAcrossParallelFor(t *testing.T) {
	r := New(machine.X52Small())
	const n = 1 << 16
	r.ParallelFor(0, n, 512, func(w *Worker, lo, hi uint64) {
		w.Counters.Instr(hi - lo)
	})
	snap := r.Fabric().Snapshot()
	if got := totalInstructions(snap); got != n {
		t.Errorf("instructions = %d, want %d", got, n)
	}
}

// Property: any (n, grain) combination covers the range exactly.
func TestQuickParallelForCoverage(t *testing.T) {
	r := New(machine.UMA(4))
	f := func(n uint32, grain uint16) bool {
		size := uint64(n%50_000) + 1
		g := int64(grain%4096) + 1
		var total atomic.Uint64
		var mu sync.Mutex
		ranges := make(map[uint64]uint64)
		r.ParallelFor(0, size, g, func(w *Worker, lo, hi uint64) {
			total.Add(hi - lo)
			mu.Lock()
			ranges[lo] = hi
			mu.Unlock()
		})
		if total.Load() != size {
			return false
		}
		// Ranges must tile [0,size) without overlap.
		var pos uint64
		for pos < size {
			hi, ok := ranges[pos]
			if !ok || hi <= pos {
				return false
			}
			pos = hi
		}
		return pos == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParallelForCallistoScale(t *testing.T) {
	// 1024 simulated hardware threads on the 8-socket preset: coverage
	// and striping must hold at Callisto's scale.
	r := New(machine.X58Callisto())
	if got := len(r.Workers()); got != 1024 {
		t.Fatalf("workers = %d, want 1024", got)
	}
	const n = 1 << 18
	var perSocket [8]atomic.Uint64
	r.ParallelFor(0, n, 256, func(w *Worker, lo, hi uint64) {
		perSocket[w.Socket].Add(hi - lo)
	})
	var total uint64
	for s := range perSocket {
		got := perSocket[s].Load()
		total += got
		if got == 0 {
			t.Errorf("socket %d did no work", s)
		}
	}
	if total != n {
		t.Errorf("total = %d, want %d", total, n)
	}
}

// totalInstructions sums a snapshot's instruction counts over sockets.
func totalInstructions(s counters.Snapshot) uint64 {
	var n uint64
	for _, t := range s.Sockets {
		n += t.Instructions
	}
	return n
}
