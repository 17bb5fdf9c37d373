package queryd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// BenchmarkScanUniqueTemplates is the benchmark's scan_unique workload
// without the harness: its four plan shapes (benchmark/workloads.go,
// scanUniqueBody) through Server.Handler() on a server configured as
// saserve ships, over the 4 Mi-row dataset the harness serves. The amount
// threshold steps every iteration, so each request is a result-cache miss
// and a full predicated scan. ns/op is wall time per query from one
// caller; `make bench-scan` runs it next to the bitpack kernel grid.
func BenchmarkScanUniqueTemplates(b *testing.B) {
	const (
		thresholdLo   = 1 << 13
		thresholdSpan = 3 << 14
	)
	rec := obs.NewRecorder(0)
	reg := obs.NewArrayRegistry()
	prev := core.ActiveArrayRegistry()
	core.SetArrayRegistry(reg)
	b.Cleanup(func() { core.SetArrayRegistry(prev) })
	rt := rts.New(machine.X52Small())
	rt.SetRecorder(rec)
	rt.SetArrayProfiling(reg)
	cfg := DefaultConfig()
	cfg.CacheEntries, cfg.SharedScan, cfg.ProfileSample = 1024, true, 16
	srv, err := NewServer(rt, cfg, []DatasetSpec{{Name: "demo", Rows: 1 << 22, Seed: 1}}, rec, reg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	handler := srv.Handler()

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
				w := httptest.NewRecorder()
				handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
				if w.Code != http.StatusOK {
					msg, _ := io.ReadAll(w.Body)
					b.Fatalf("status %d: %s", w.Code, msg)
				}
			}
		})
	}
}
