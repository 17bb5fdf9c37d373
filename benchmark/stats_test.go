package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 7, 8, 100, 1}, 8},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
}

// The reported tail is the highest ladder percentile with at least ten
// samples beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	} {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		pct, value := tail(sorted)
		if pct != c.want {
			t.Errorf("tail of %d samples is p%v, want p%v", c.n, pct, c.want)
		}
		beyond := c.n - 1 - int(value)
		if wantBeyond := int(math.Round(float64(c.n) * (100 - pct) / 100)); c.n%10000 == 0 && beyond != wantBeyond {
			t.Errorf("tail of %d samples at p%v has %d samples beyond, want %d", c.n, pct, beyond, wantBeyond)
		}
		if c.n >= 20 && beyond < 10 {
			t.Errorf("tail of %d samples at p%v has only %d samples beyond", c.n, pct, beyond)
		}
	}
	if pct, v := tail(nil); pct != 50 || v != 0 {
		t.Errorf("tail of nothing = p%v %v", pct, v)
	}
}

// qps is the median over slices of verified-OK completions per second;
// failures and completions outside the window count in neither.
func TestSummarizeSlices(t *testing.T) {
	const window = 5 * time.Second
	var samples []sample
	add := func(slice, n int, ok bool) {
		for i := 0; i < n; i++ {
			done := time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{done: done, lat: time.Duration(slice+1) * time.Millisecond, ok: ok})
		}
	}
	for slice, n := range []int{100, 300, 200, 500, 400} {
		add(slice, n, true)
	}
	add(2, 30, false)                                                                    // failed: attempted, not served
	samples = append(samples, sample{done: window, lat: time.Millisecond, ok: true})     // finished after the window
	samples = append(samples, sample{done: window - 1, lat: time.Millisecond, ok: true}) // last nanosecond: slice 5

	st := summarize(samples, window, 5)
	if st.Attempted != 1531 || st.Failed != 30 {
		t.Errorf("attempted %d failed %d, want 1531 and 30", st.Attempted, st.Failed)
	}
	want := []float64{100, 300, 200, 500, 401}
	for i, w := range want {
		if st.SliceQPS[i] != w {
			t.Errorf("slice %d: %v 1/s, want %v", i, st.SliceQPS[i], w)
		}
	}
	if st.QPS != 300 {
		t.Errorf("qps %v, want the slice median 300", st.QPS)
	}
	if got, want := st.QPSSpread, (500.0-100.0)/300.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("qps spread %v, want %v", got, want)
	}
	// 1501 OK latencies: 100 of 1 ms, 300 of 2 ms, 200 of 3 ms, 500 of 4 ms, 401 of 5 or 1 ms.
	if st.P50MS != 4 {
		t.Errorf("p50 %v ms, want 4", st.P50MS)
	}
	if st.TailPct != 99 || st.TailMS != 5 {
		t.Errorf("tail p%v = %v ms, want p99 = 5 ms", st.TailPct, st.TailMS)
	}
}

// Self time is a span's length minus what its children cover, children
// clipped to the parent and overlaps counted once.
func TestSelfTimes(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	spans := []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: ms(10)},
		{ID: 2, Name: "server.wall", StartNS: ms(1), EndNS: ms(9), Parent: 1},
		{ID: 3, Name: "plan.parse", StartNS: ms(1), EndNS: ms(2), Parent: 2},
		{ID: 4, Name: "colstore.exec", StartNS: ms(2), EndNS: ms(6), Parent: 2},
		{ID: 5, Name: "core.kernels", StartNS: ms(2), EndNS: ms(8), Parent: 4}, // longer than its parent
		{ID: 6, Name: "rts.dispatch", StartNS: ms(2), EndNS: ms(3), Parent: 4}, // inside core.kernels
	}
	got := selfTimesMS(spans)
	want := map[string]float64{"request": 2, "server.wall": 3, "plan.parse": 1, "colstore.exec": 0, "core.kernels": 6, "rts.dispatch": 1}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, got[name], w)
		}
	}
}

func TestTraceLayout(t *testing.T) {
	tl := &traceLog{workload: "w"}
	req := tracedReq{start: 10 * time.Millisecond, lat: 8 * time.Millisecond, wall: 6 * time.Millisecond}
	tl.addRequest(1, req, &replay{parse: time.Millisecond, exec: 3 * time.Millisecond, kernels: 2 * time.Millisecond, dispatch: time.Millisecond})
	tl.addRequest(2, tracedReq{start: 0, lat: time.Millisecond, wall: 2 * time.Millisecond, cached: true}, &replay{parse: time.Millisecond})
	names := map[string]int{}
	byID := map[int]span{}
	for _, s := range tl.spans {
		names[s.Name]++
		byID[s.ID] = s
		if s.Parent != 0 {
			p := byID[s.Parent]
			if p.ID == 0 || p.RequestID != s.RequestID {
				t.Errorf("span %d (%s) has no earlier parent in its request", s.ID, s.Name)
			}
			if s.StartNS < p.StartNS {
				t.Errorf("span %d (%s) starts before its parent", s.ID, s.Name)
			}
		}
	}
	if names[spanRequest] != 2 || names[spanServerWall] != 2 || names[spanPlanParse] != 2 || names[spanExec] != 1 || names[spanKernels] != 1 || names[spanDispatch] != 1 {
		t.Errorf("span counts %v", names)
	}
	if w := byID[2]; w.StartNS != 11e6 || w.EndNS != 17e6 {
		t.Errorf("server.wall at [%d,%d), want centred [11ms,17ms)", w.StartNS, w.EndNS)
	}
	if w := byID[8]; w.EndNS-w.StartNS != 1e6 {
		t.Errorf("server.wall longer than its request: %d ns", w.EndNS-w.StartNS)
	}
}
