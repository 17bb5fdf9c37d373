// Slow-query log: lock-free retention of finalized query profiles. Two
// rings share one discipline — a fixed slot array of atomic pointers
// with a monotonically claimed cursor — so publishing a profile is two
// atomic ops and never blocks a request. The recent ring keeps the last
// N profiled queries regardless of latency (it backs /debug/query/<id>
// lookups); the slow ring keeps only those over the threshold. On top,
// a small mutex-guarded top-K holds the slowest queries seen so far;
// the mutex is acceptable because a candidate first passes a lock-free
// floor check, so contended inserts are as rare as record-slow queries.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the slow-query log; NewSlowLog clamps zero values to
// these.
const (
	DefaultSlowLogRing = 256
	DefaultSlowLogTopK = 16
)

// SlowLog retains finalized QueryProfiles. All methods are safe for
// concurrent use; Observe is lock-free except for genuine top-K
// promotions.
type SlowLog struct {
	thresholdNs atomic.Int64

	recent ring
	slow   ring

	topK   int
	topMin atomic.Uint64 // TotalNs floor for top-K admission (0 = not full)
	topMu  sync.Mutex
	top    []*QueryProfile // slowest first; capacity topK+1, so inserting never allocates
}

// ring is a lock-free circular buffer of profile pointers.
type ring struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[QueryProfile]
}

func (r *ring) init(n int) {
	r.slots = make([]atomic.Pointer[QueryProfile], n)
}

func (r *ring) put(p *QueryProfile) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(p)
}

func (r *ring) snapshot() []*QueryProfile {
	out := make([]*QueryProfile, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// NewSlowLog builds a log with the given ring size, top-K width, and
// slow threshold. Zero sizes take the defaults; a zero threshold means
// every query lands in the slow ring.
func NewSlowLog(ringSize, topK int, threshold time.Duration) *SlowLog {
	if ringSize <= 0 {
		ringSize = DefaultSlowLogRing
	}
	if topK <= 0 {
		topK = DefaultSlowLogTopK
	}
	l := &SlowLog{topK: topK, top: make([]*QueryProfile, 0, topK+1)}
	l.recent.init(ringSize)
	l.slow.init(ringSize)
	l.thresholdNs.Store(int64(threshold))
	return l
}

// SetThreshold swaps the slow threshold (control-plane config swap).
func (l *SlowLog) SetThreshold(d time.Duration) { l.thresholdNs.Store(int64(d)) }

// Observe publishes a finalized profile. The profile must not be
// mutated after this call.
func (l *SlowLog) Observe(p *QueryProfile) {
	l.recent.put(p)
	if int64(p.TotalNs) >= l.thresholdNs.Load() {
		l.slow.put(p)
	}
	// Lock-free floor check: only candidates that could enter top-K pay
	// the mutex.
	if min := l.topMin.Load(); min == 0 || p.TotalNs > min {
		l.offerTop(p)
	}
}

func (l *SlowLog) offerTop(p *QueryProfile) {
	l.topMu.Lock()
	defer l.topMu.Unlock()
	if len(l.top) >= l.topK && p.TotalNs <= l.top[len(l.top)-1].TotalNs {
		return
	}
	// Shift p up past every faster entry; drop the fastest on overflow.
	l.top = append(l.top, p)
	for i := len(l.top) - 1; i > 0 && l.top[i-1].TotalNs < p.TotalNs; i-- {
		l.top[i], l.top[i-1] = l.top[i-1], p
	}
	if len(l.top) > l.topK {
		l.top[l.topK] = nil
		l.top = l.top[:l.topK]
	}
	if len(l.top) >= l.topK {
		l.topMin.Store(l.top[len(l.top)-1].TotalNs)
	}
}

// SlowLogSnapshot is the JSON shape served at /debug/slowlog.
type SlowLogSnapshot struct {
	ThresholdMS float64 `json:"threshold_ms"`
	Observed    uint64  `json:"observed"`
	Slow        uint64  `json:"slow"`
	// Top is the slowest-K of all time; SlowQueries the retained
	// over-threshold ring (slowest first); Recent the last profiled
	// queries regardless of latency (newest first).
	Top         []*QueryProfile `json:"top"`
	SlowQueries []*QueryProfile `json:"slow_queries"`
	Recent      []*QueryProfile `json:"recent"`
}

// Snapshot returns the current log contents.
func (l *SlowLog) Snapshot() SlowLogSnapshot {
	snap := SlowLogSnapshot{
		ThresholdMS: float64(l.thresholdNs.Load()) / 1e6,
		Observed:    l.recent.pos.Load(),
		Slow:        l.slow.pos.Load(),
	}
	l.topMu.Lock()
	snap.Top = append([]*QueryProfile(nil), l.top...)
	l.topMu.Unlock()
	snap.SlowQueries = l.slow.snapshot()
	sort.Slice(snap.SlowQueries, func(i, j int) bool {
		return snap.SlowQueries[i].TotalNs > snap.SlowQueries[j].TotalNs
	})
	snap.Recent = l.recent.snapshot()
	sort.Slice(snap.Recent, func(i, j int) bool {
		return snap.Recent[i].ID > snap.Recent[j].ID
	})
	return snap
}

// Lookup finds a retained profile by query ID — the /debug/query/<id>
// endpoint. Returns nil when the profile has been evicted from both rings
// and the top-K, or the ID was never issued.
func (l *SlowLog) Lookup(id uint64) *QueryProfile {
	for _, p := range l.recent.snapshot() {
		if p.ID == id {
			return p
		}
	}
	for _, p := range l.slow.snapshot() {
		if p.ID == id {
			return p
		}
	}
	l.topMu.Lock()
	defer l.topMu.Unlock()
	for _, p := range l.top {
		if p.ID == id {
			return p
		}
	}
	return nil
}
