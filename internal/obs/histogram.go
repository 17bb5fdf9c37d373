package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of log-spaced buckets a Histogram carries:
// bucket b counts observations v with 2^(b-1) < v <= 2^b-1 nanoseconds
// (bucket 0 holds v == 0), spanning ~1 ns to ~9 hours — every loop and
// kernel timing the runtime produces.
const HistBuckets = 45

// Histogram is a lock-free log2-bucketed latency histogram. Observe is a
// single atomic add, so workers can time batches concurrently without
// perturbing each other; snapshots read the buckets without stopping
// writers (individually atomic, collectively approximate — fine for
// telemetry).
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

// histBucketOf maps a nanosecond value to its bucket index.
func histBucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one latency in nanoseconds. Safe on nil.
func (h *Histogram) Observe(ns uint64) {
	if h == nil {
		return
	}
	h.counts[histBucketOf(ns)].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
}

// ObserveSince records the elapsed wall time since start. Safe on nil.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistBucket is one exposition bucket: Count observations at most LeNs.
type HistBucket struct {
	LeNs  uint64 `json:"leNs"`
	Count uint64 `json:"count"` // cumulative, Prometheus-style
}

// HistogramSnapshot is the JSON/exposition form of a histogram: cumulative
// buckets (only up to the highest non-empty one), total count, and sum.
type HistogramSnapshot struct {
	Count   uint64       `json:"count"`
	SumNs   uint64       `json:"sumNs"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Safe on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{Count: h.n.Load(), SumNs: h.sum.Load()}
	var cum uint64
	last := -1
	raw := make([]uint64, HistBuckets)
	for b := 0; b < HistBuckets; b++ {
		raw[b] = h.counts[b].Load()
		if raw[b] > 0 {
			last = b
		}
	}
	for b := 0; b <= last; b++ {
		cum += raw[b]
		snap.Buckets = append(snap.Buckets, HistBucket{LeNs: histUpper(b), Count: cum})
	}
	return snap
}

// histUpper is bucket b's inclusive upper bound in nanoseconds.
func histUpper(b int) uint64 {
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(b) - 1
}

// Quantile estimates the q-quantile (q in [0,1]) from the snapshot,
// interpolating within the winning bucket. Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	i := sort.Search(len(s.Buckets), func(i int) bool {
		return float64(s.Buckets[i].Count) >= rank
	})
	if i >= len(s.Buckets) {
		i = len(s.Buckets) - 1
	}
	hi := float64(s.Buckets[i].LeNs)
	lo := 0.0
	prevCum := 0.0
	if i > 0 {
		lo = float64(s.Buckets[i-1].LeNs)
		prevCum = float64(s.Buckets[i-1].Count)
	}
	inBucket := float64(s.Buckets[i].Count) - prevCum
	if inBucket <= 0 {
		return hi
	}
	frac := (rank - prevCum) / inBucket
	if frac < 0 {
		frac = 0
	}
	return lo + frac*(hi-lo)
}

// histogramSet is the recorder's named-histogram table: created on demand,
// read-mostly after warmup.
type histogramSet struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// get returns the named histogram, creating it if needed.
func (hs *histogramSet) get(name string) *Histogram {
	hs.mu.RLock()
	h := hs.m[name]
	hs.mu.RUnlock()
	if h != nil {
		return h
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.m == nil {
		hs.m = make(map[string]*Histogram)
	}
	if h = hs.m[name]; h == nil {
		h = &Histogram{}
		hs.m[name] = h
	}
	return h
}

// snapshotAll captures every named histogram, sorted by name at the
// consumer (map order is unspecified).
func (hs *histogramSet) snapshotAll() map[string]HistogramSnapshot {
	hs.mu.RLock()
	defer hs.mu.RUnlock()
	if len(hs.m) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(hs.m))
	for name, h := range hs.m {
		out[name] = h.Snapshot()
	}
	return out
}

// Histogram returns the recorder's named histogram, creating it on first
// use. Safe on nil (returns nil; Histogram methods are nil-safe too, so
// `rec.Histogram("rts.loop").ObserveSince(t)` costs one nil check when
// observability is off).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists.get(name)
}

// Histograms snapshots all named histograms. Safe on nil.
func (r *Recorder) Histograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	return r.hists.snapshotAll()
}
