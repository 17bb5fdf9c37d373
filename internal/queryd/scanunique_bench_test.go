package queryd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// newScanUniqueServer builds a server configured as saserve ships over the
// 4 Mi-row dataset the benchmark harness serves, cache sized to entries.
func newScanUniqueServer(b testing.TB, cacheEntries int) *Server {
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	rt := rts.New(machine.X52Small())
	cfg := DefaultConfig()
	cfg.CacheEntries = cacheEntries
	srv, err := NewServer(rt, cfg, []DatasetSpec{{Name: "demo", Rows: 1 << 22, Seed: 1}}, rec, reg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// serveQuery sends one /query body through the handler, failing the
// caller on anything but a 200, and returns the response.
func serveQuery(b testing.TB, handler http.Handler, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		msg, _ := io.ReadAll(w.Body)
		b.Errorf("status %d: %s", w.Code, msg)
	}
	return w
}

// The scan_unique threshold range (benchmark/workloads.go).
const (
	thresholdLo   = 1 << 13
	thresholdSpan = 3 << 14
)

// BenchmarkScanUniqueTemplates is the benchmark's scan_unique workload
// without the harness: its four plan shapes (benchmark/workloads.go,
// scanUniqueBody) through Server.Handler() on a server configured as
// saserve ships, over the 4 Mi-row dataset the harness serves. The amount
// threshold steps every iteration, so each request is a result-cache miss
// and a full predicated scan. ns/op is wall time per query from one
// caller; `make bench-scan` runs it next to the bitpack kernel grid.
func BenchmarkScanUniqueTemplates(b *testing.B) {
	handler := newScanUniqueServer(b, 1024).Handler()

	templates := []struct {
		name string
		body func(t, k uint64) string
	}{
		{"sum_lt", func(t, _ uint64) string {
			return fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount","where":[{"column":"amount","op":"<","value":%d}]}`, t)
		}},
		{"count_ge_flag", func(t, _ uint64) string {
			return fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"count","column":"id","where":[{"column":"amount","op":">=","value":%d},{"column":"flag","op":"=","value":1}]}`, t)
		}},
		{"groupby_gt", func(t, _ uint64) string {
			return fmt.Sprintf(`{"dataset":"demo","op":"groupby","key":"region","agg":"sum","column":"amount","where":[{"column":"amount","op":">","value":%d}]}`, t)
		}},
		{"max_le_region", func(t, k uint64) string {
			return fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"max","column":"id","where":[{"column":"amount","op":"<=","value":%d},{"column":"region","op":"<","value":%d}]}`, t, 1+k%15)
		}},
	}
	// One threshold sequence across sub-benchmarks and their b.N
	// calibration rounds: no (template, threshold) pair repeats within
	// thresholdSpan requests, so the result cache never answers.
	var k uint64
	for _, tpl := range templates {
		b.Run(tpl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k++
				body := tpl.body(thresholdLo+(k*40507)%thresholdSpan, k)
				serveQuery(b, handler, body)
			}
		})
	}
}

// BenchmarkServedCacheHit is the repeat_hot workload's hit path without
// the harness: one predicated aggregate, answered once to fill the result
// cache, then sent again and again through Server.Handler() on the server
// scan_unique's benchmarks use. Every request is a cache hit, so ns/op and
// allocs/op are what queryd itself costs a query: parse, cache key, the
// query's profile and the slow-query log, the JSON reply.
func BenchmarkServedCacheHit(b *testing.B) {
	handler := newScanUniqueServer(b, 1024).Handler()
	const body = `{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount","where":[{"column":"region","op":"<","value":8}]}`
	serveQuery(b, handler, body)
	if w := serveQuery(b, handler, body); !strings.Contains(w.Body.String(), `"cached":true`) {
		b.Fatalf("repeated query was not a cache hit: %s", w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveQuery(b, handler, body)
	}
}

// BenchmarkZoneOrderedExtremes sizes colstore's zone walk for MIN/MAX
// through Server.Handler() on the same server and dataset, result cache
// off so every request executes: MIN(id), the ascending walk's best case
// (one super zone, folded from chunk bounds); MAX(amount) under a
// predicate on another column, a uniform target whose super-zone maxima
// nearly tie; and MAX(amount) WHERE amount <= t, whose clamped bounds all
// tie at t — the case that degrades to one whole pass. `make bench-scan`
// runs it after BenchmarkScanUniqueTemplates.
func BenchmarkZoneOrderedExtremes(b *testing.B) {
	handler := newScanUniqueServer(b, 0).Handler()
	cases := []struct {
		name string
		body func(t, k uint64) string
	}{
		{"min_id", func(_, _ uint64) string {
			return `{"dataset":"demo","op":"aggregate","agg":"min","column":"id"}`
		}},
		{"max_region", func(_, k uint64) string {
			return fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"max","column":"amount","where":[{"column":"region","op":"<","value":%d}]}`, 1+k%15)
		}},
		{"max_le_degrade", func(t, _ uint64) string {
			return fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"max","column":"amount","where":[{"column":"amount","op":"<=","value":%d}]}`, t)
		}},
	}
	var k uint64
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k++
				serveQuery(b, handler, c.body(thresholdLo+(k*40507)%thresholdSpan, k))
			}
		})
	}
}

// BenchmarkScanUniqueTwoCallers sizes coalescing: two closed-loop callers
// through Server.Handler() on the same server, both asking for
// min(amount) under scan_unique's `amount < t`. "distinct" gives every
// request a threshold of its own, so each executes; "identical" holds t
// fixed, so a caller that finds its twin executing waits for that answer.
// The result cache is off (as in load_smoke's coalescing phase) so the
// repeated plans execute. ms/query is what each caller waits per query;
// coalesced is the share of queries answered by the other's execution.
func BenchmarkScanUniqueTwoCallers(b *testing.B) {
	srv := newScanUniqueServer(b, 0)
	handler := srv.Handler()
	body := func(t uint64) string {
		return fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"min","column":"amount","where":[{"column":"amount","op":"<","value":%d}]}`, t)
	}
	var k atomic.Uint64
	cases := []struct {
		name string
		body func() string
	}{
		{"distinct", func() string { return body(thresholdLo + (k.Add(1)*40507)%thresholdSpan) }},
		{"identical", func() string { return body(thresholdLo + thresholdSpan/2) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			before := srv.cache.stats().Coalesced
			var wg sync.WaitGroup
			for caller := 0; caller < 2; caller++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						serveQuery(b, handler, c.body())
					}
				}()
			}
			wg.Wait()
			coalesced := srv.cache.stats().Coalesced - before
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/query")
			b.ReportMetric(float64(coalesced)/float64(2*b.N), "coalesced")
		})
	}
}
