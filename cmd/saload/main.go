// Command saload drives a saserve instance with a mixed query workload
// and reports queries/sec and latency percentiles (see
// internal/queryd/loadgen).
//
//	saload -addr 127.0.0.1:8080 -duration 5s -concurrency 8
//	saload -addr 127.0.0.1:8080 -duration 10s -rate 200      # open-loop Poisson
//
// -spot-check first verifies served results against the dataset's
// build-time checksums (sum(column) per column, row count, degree sum =
// 2x edges), so a passing run certifies correctness, not just liveness.
//
// Gate flags turn the run into a pass/fail check for CI:
//
//	-max-5xx 0        fail on any 5xx response
//	-min-qps 1        fail if successful throughput is below this
//	-max-p99-ms 5000  fail if client-side p99 exceeds this
//
// Unset gates (negative -max-5xx, zero -min-qps/-max-p99-ms) are skipped.
// The JSON report lands in -report (default saload_report.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"smartarrays/internal/queryd/loadgen"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "server address (host:port)")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	concurrency := flag.Int("concurrency", 4, "closed-loop clients, or open-loop outstanding cap")
	rate := flag.Float64("rate", 0, "open-loop Poisson arrivals/sec (0 = closed loop)")
	seed := flag.Int64("seed", 1, "workload random seed (same seed replays the same pick sequences)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	report := flag.String("report", "saload_report.json", "write the JSON report here (empty = skip)")
	spot := flag.Bool("spot-check", true, "verify results against dataset checksums before the run")
	aggOnly := flag.Bool("agg-only", false, "restrict the mix to table scans (aggregate/groupby)")
	tenants := flag.Int("tenants", 0, "spread load over N synthetic tenants (tenant-0..tenant-N-1; 0/1 = untagged)")

	max5xx := flag.Int("max-5xx", -1, "gate: max allowed 5xx responses (negative = no gate)")
	minQPS := flag.Float64("min-qps", 0, "gate: min successful queries/sec (0 = no gate)")
	maxP99 := flag.Float64("max-p99-ms", 0, "gate: max client-side p99 in ms (0 = no gate)")
	minCacheHits := flag.Uint64("min-cache-hits", 0, "gate: min server-side result-cache hits over the run (0 = no gate)")
	minCoalesced := flag.Uint64("min-coalesced", 0, "gate: min server-side queries answered by an identical plan in flight over the run (0 = no gate)")
	minSlowlog := flag.Uint64("min-slowlog-entries", 0, "gate: min slow-query-log profiles observed over the run (0 = no gate)")
	minTenantSeries := flag.Int("min-tenant-series", 0, "gate: min per-tenant RED series on the server after the run (0 = no gate)")
	flag.Parse()

	if *spot {
		if err := loadgen.SpotCheck(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "saload: spot check FAILED:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "saload: spot check passed (column sums, row count, degree sum)")
	}

	rep, err := loadgen.Run(loadgen.Options{
		Addr:        *addr,
		Duration:    *duration,
		Rate:        *rate,
		Concurrency: *concurrency,
		AggOnly:     *aggOnly,
		Tenants:     *tenants,
		Seed:        *seed,
		Timeout:     *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "saload:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Summary())
	if *report != "" {
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintln(os.Stderr, "saload: writing report:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "saload: report written to %s\n", *report)
	}

	failed := false
	gate := func(ok bool, format string, args ...any) {
		if ok {
			return
		}
		failed = true
		fmt.Fprintf(os.Stderr, "saload: gate FAILED: "+format+"\n", args...)
	}
	if *max5xx >= 0 {
		gate(rep.Errors5xx <= uint64(*max5xx), "%d responses were 5xx (max %d)", rep.Errors5xx, *max5xx)
		gate(rep.Transport == 0, "%d requests failed at the transport level", rep.Transport)
	}
	if *minQPS > 0 {
		gate(rep.QPS >= *minQPS, "%.1f qps below floor %.1f", rep.QPS, *minQPS)
	}
	if *maxP99 > 0 {
		gate(rep.P99MS <= *maxP99, "p99 %.2f ms above bound %.2f ms", rep.P99MS, *maxP99)
	}
	if *minCacheHits > 0 {
		gate(rep.CacheHits >= *minCacheHits, "%d cache hits below floor %d", rep.CacheHits, *minCacheHits)
	}
	if *minCoalesced > 0 {
		gate(rep.Coalesced >= *minCoalesced, "%d coalesced queries below floor %d", rep.Coalesced, *minCoalesced)
	}
	if *minSlowlog > 0 {
		gate(rep.SlowlogObserved >= *minSlowlog, "%d slowlog profiles below floor %d", rep.SlowlogObserved, *minSlowlog)
	}
	if *minTenantSeries > 0 {
		gate(rep.TenantSeries >= *minTenantSeries, "%d tenant RED series below floor %d", rep.TenantSeries, *minTenantSeries)
	}
	if failed {
		os.Exit(1)
	}
}
