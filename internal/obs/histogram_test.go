package obs

import (
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// One observation per interesting boundary: 0 lands in bucket 0,
	// 1 in bucket 1, 2..3 in bucket 2, 4..7 in bucket 3, ...
	for _, ns := range []uint64{0, 1, 2, 3, 4, 7, 8} {
		h.Observe(ns)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if s.SumNs != 0+1+2+3+4+7+8 {
		t.Fatalf("SumNs = %d, want 25", s.SumNs)
	}
	// Cumulative: le=0 -> 1, le=1 -> 2, le=3 -> 4, le=7 -> 6, le=15 -> 7.
	want := []HistBucket{{0, 1}, {1, 2}, {3, 4}, {7, 6}, {15, 7}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("Buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if s.SumNs != 25 || s.Count != 7 {
		t.Errorf("SumNs/Count = %d/%d, want 25/7", s.SumNs, s.Count)
	}
	if q := s.Quantile(1); q > 15 {
		t.Errorf("Quantile(1) = %v, want <= top bucket bound 15", q)
	}
	if q := s.Quantile(0); q < 0 {
		t.Errorf("Quantile(0) = %v, want >= 0", q)
	}
}

func TestHistogramHugeValueClamped(t *testing.T) {
	var h Histogram
	h.Observe(^uint64(0)) // must clamp into the last bucket, not panic
	s := h.Snapshot()
	if s.Count != 1 || len(s.Buckets) == 0 {
		t.Fatalf("snapshot = %+v, want one clamped observation", s)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Count != 1 {
		t.Fatalf("last bucket = %+v, want cumulative count 1", last)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
	var r *Recorder
	if r.Histogram("x") != nil {
		t.Fatal("nil recorder must hand out nil histograms")
	}
	r.Histogram("x").Observe(5) // must not panic
	if r.Histograms() != nil {
		t.Fatal("nil recorder Histograms must be nil")
	}
}

func TestEmptySnapshotQuantile(t *testing.T) {
	var s HistogramSnapshot
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := s.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, v)
		}
	}
}

func TestSingleObservationQuantile(t *testing.T) {
	var h Histogram
	h.Observe(100) // bucket 7: (63, 127]
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	// Every non-degenerate quantile of a single observation must land in
	// the observation's bucket — the estimate can't escape (63, 127].
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		v := s.Quantile(q)
		if v <= 63 || v > 127 {
			t.Errorf("Quantile(%v) = %v, want in (63, 127]", q, v)
		}
	}
	// Out-of-range q clamps instead of panicking or extrapolating.
	if v := s.Quantile(2); v <= 63 || v > 127 {
		t.Errorf("Quantile(2) = %v, want clamped to (63, 127]", v)
	}
	if s.SumNs != 100 {
		t.Errorf("SumNs = %v, want 100 (exact: sum is tracked outside buckets)", s.SumNs)
	}
}

func TestAllOneBucketQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100) // all ten land in bucket 7: (63, 127]
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("Count = %d, want 10", s.Count)
	}
	// With a single occupied bucket the estimate interpolates across that
	// bucket's span; it must stay inside it and be monotone in q.
	prev := 0.0
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		v := s.Quantile(q)
		if v <= 63 || v > 127 {
			t.Errorf("Quantile(%v) = %v, want in (63, 127]", q, v)
		}
		if v < prev {
			t.Errorf("Quantile(%v) = %v decreased below %v", q, v, prev)
		}
		prev = v
	}
	if v := s.Quantile(1); v != 127 {
		t.Errorf("Quantile(1) = %v, want the bucket's upper bound 127", v)
	}
}

// TestHistogramConcurrent has writers observing while readers snapshot —
// the lock-free path -race polices.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRecorder(16)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("rts.loop") // same name: exercises get() races
			for i := 0; i < perWriter; i++ {
				h.Observe(uint64(w*perWriter + i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Histograms()
			_ = r.Histogram("rts.loop").Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := r.Histogram("rts.loop").Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("Count = %d, want %d", s.Count, writers*perWriter)
	}
	if len(s.Buckets) == 0 || s.Buckets[len(s.Buckets)-1].Count != writers*perWriter {
		t.Fatalf("cumulative tail = %+v, want %d", s.Buckets, writers*perWriter)
	}
}
