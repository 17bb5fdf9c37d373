package obs

import (
	"sync"
	"testing"
	"time"
)

// finalized builds a finalized profile with a pinned TotalNs.
func finalized(id, totalNs uint64) *QueryProfile {
	p := NewQueryProfileAt(id, time.Now())
	p.FinalizeAt("ok", 200, time.Now())
	p.TotalNs = totalNs
	return p
}

func TestSlowLogThresholdAndRings(t *testing.T) {
	l := NewSlowLog(8, 4, 100*time.Nanosecond)
	for id := uint64(1); id <= 6; id++ {
		l.Observe(finalized(id, id*30)) // 30..180ns: ids 4,5,6 are slow
	}
	snap := l.Snapshot()
	if snap.Observed != 6 || snap.Slow != 3 {
		t.Fatalf("observed/slow = %d/%d, want 6/3", snap.Observed, snap.Slow)
	}
	if len(snap.Recent) != 6 {
		t.Fatalf("recent ring holds %d, want 6", len(snap.Recent))
	}
	if snap.Recent[0].ID != 6 {
		t.Errorf("recent not newest-first: %+v", snap.Recent[0])
	}
	if len(snap.SlowQueries) != 3 || snap.SlowQueries[0].ID != 6 {
		t.Errorf("slow ring = %+v, want ids 6,5,4 slowest-first", snap.SlowQueries)
	}
	if len(snap.Top) != 4 || snap.Top[0].TotalNs != 180 {
		t.Errorf("top-K = %+v, want 4 entries led by 180ns", snap.Top)
	}
	if snap.ThresholdMS != 100.0/1e6 {
		t.Errorf("threshold = %v ms", snap.ThresholdMS)
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	l := NewSlowLog(4, 2, 0) // zero threshold: everything is slow
	for id := uint64(1); id <= 10; id++ {
		// Increasing latency: the top-K also forgets the earliest ids, so
		// id 1 is retained nowhere once both rings wrap.
		l.Observe(finalized(id, id*10))
	}
	snap := l.Snapshot()
	if snap.Observed != 10 || snap.Slow != 10 {
		t.Fatalf("counters = %d/%d, want 10/10", snap.Observed, snap.Slow)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("recent ring holds %d after wrap, want 4", len(snap.Recent))
	}
	if l.Lookup(10) == nil {
		t.Error("latest profile not found")
	}
	if l.Lookup(1) != nil {
		t.Error("evicted profile still resolvable")
	}
	if l.Lookup(999) != nil {
		t.Error("unknown id resolved")
	}
}

func TestSlowLogSetThreshold(t *testing.T) {
	l := NewSlowLog(8, 2, time.Hour)
	l.Observe(finalized(1, 1000))
	if s := l.Snapshot(); s.Slow != 0 {
		t.Fatalf("slow = %d under an hour threshold", s.Slow)
	}
	l.SetThreshold(time.Nanosecond)
	l.Observe(finalized(2, 1000))
	if s := l.Snapshot(); s.Slow != 1 {
		t.Fatalf("slow = %d after lowering threshold, want 1", s.Slow)
	}
}

// TestSlowLogTopInsertNoAlloc: a profile entering a full top-K is shifted
// into place without allocating (a sort there allocated its swapper on
// every promotion, so slower-than-usual requests cost an extra
// allocation), and the top-K stays slowest first whatever order the
// profiles arrive in.
func TestSlowLogTopInsertNoAlloc(t *testing.T) {
	const topK, runs = 4, 100
	l := NewSlowLog(8, topK, time.Hour)
	for i := uint64(1); i <= topK; i++ {
		l.Observe(finalized(i, i*10))
	}
	profiles := make([]*QueryProfile, runs+1) // AllocsPerRun adds a warm-up call
	for i := range profiles {
		profiles[i] = finalized(uint64(100+i), uint64(1000+i))
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		l.Observe(profiles[next])
		next++
	}); got != 0 {
		t.Fatalf("Observe into a full top-K: %v allocations, want 0", got)
	}
	if top := l.Snapshot().Top; len(top) != topK || top[0].TotalNs != 1000+runs || top[topK-1].TotalNs != 1000+runs-topK+1 {
		t.Fatalf("top-K after %d promotions = %+v", runs+1, top)
	}

	l = NewSlowLog(8, topK, time.Hour)
	for i := uint64(0); i < 50; i++ {
		ns := i*17%50 + 1 // 1..50, shuffled
		l.Observe(finalized(ns, ns))
	}
	top := l.Snapshot().Top
	if len(top) != topK {
		t.Fatalf("top-K holds %d, want %d", len(top), topK)
	}
	for i, p := range top {
		if want := uint64(50 - i); p.TotalNs != want {
			t.Fatalf("top[%d] = %dns, want %dns (slowest first): %+v", i, p.TotalNs, want, top)
		}
	}
}

// TestSlowLogConcurrent is the -race exercise: concurrent publishers
// against snapshot/lookup readers.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(32, 8, 50)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				l.Observe(finalized(id, id%100))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = l.Snapshot()
			_ = l.Lookup(uint64(i))
		}
	}()
	wg.Wait()
	<-done
	if s := l.Snapshot(); s.Observed != writers*perWriter {
		t.Fatalf("observed = %d, want %d", s.Observed, writers*perWriter)
	}
}
