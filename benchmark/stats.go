package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder are the percentiles a latency tail is reported at, each with
// the share of samples beyond it written as one in so many, which keeps
// the sample arithmetic in integers.
var tailLadder = []struct {
	pct   float64
	oneIn int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tail picks the highest ladder percentile that still has at least ten
// samples beyond it — a tail read off fewer is one request's luck, not the
// system's — and returns it with its value. Below twenty samples it stays
// at p50.
func tail(sorted []float64) (pct, value float64) {
	if len(sorted) == 0 {
		return tailLadder[0].pct, 0
	}
	best := tailLadder[0]
	for _, step := range tailLadder {
		if len(sorted)/step.oneIn >= 10 {
			best = step
		}
	}
	return best.pct, sorted[len(sorted)-len(sorted)/best.oneIn-1]
}

// sample is one completed request of a pass.
type sample struct {
	// done is the completion time since the pass began.
	done time.Duration
	lat  time.Duration
	// ok means HTTP 200 and, when the response was checked, the right answer.
	ok bool
}

// passStats summarises the samples that completed inside [0, window).
type passStats struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	QPS       float64 `json:"qps"`
	P50MS     float64 `json:"p50_ms"`
	TailMS    float64 `json:"tail_ms"`
	TailPct   float64 `json:"tail_pct"`
	// SliceQPS is the verified-OK rate of each slice; QPS is its median
	// and QPSSpread its (max-min)/median.
	SliceQPS  []float64 `json:"slice_qps"`
	QPSSpread float64   `json:"qps_spread"`
}

// summarize cuts window into nSlices equal slices and reduces the samples.
func summarize(samples []sample, window time.Duration, nSlices int) passStats {
	st := passStats{SliceQPS: make([]float64, nSlices)}
	slice := window / time.Duration(nSlices)
	var lats []float64
	for _, s := range samples {
		if s.done < 0 || s.done >= window {
			continue
		}
		st.Attempted++
		if !s.ok {
			st.Failed++
			continue
		}
		// window/nSlices truncates, so the last few nanoseconds of the
		// window belong to the last slice.
		st.SliceQPS[min(int(s.done/slice), nSlices-1)]++
		lats = append(lats, float64(s.lat.Nanoseconds())/1e6)
	}
	lo, hi := 0.0, 0.0
	for i := range st.SliceQPS {
		st.SliceQPS[i] /= slice.Seconds()
		if i == 0 || st.SliceQPS[i] < lo {
			lo = st.SliceQPS[i]
		}
		if st.SliceQPS[i] > hi {
			hi = st.SliceQPS[i]
		}
	}
	st.QPS = median(st.SliceQPS)
	if st.QPS > 0 {
		st.QPSSpread = (hi - lo) / st.QPS
	}
	sort.Float64s(lats)
	st.P50MS = percentile(lats, 50)
	st.TailPct, st.TailMS = tail(lats)
	return st
}
