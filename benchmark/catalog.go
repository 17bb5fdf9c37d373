package main

import "fmt"

// The catalogue is the single list of workload and metric names. The
// harness emits exactly these, BENCHMARK.json declares exactly these
// (catalog_test.go holds the two together), and later issues cite them.

// workloadDef is one traffic mix and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names are fixed; each steers the shipping server into one
// behaviour through its traffic alone.
const (
	wlRepeatHot     = "repeat_hot"
	wlScanUnique    = "scan_unique"
	wlScanSelective = "scan_selective"
	wlGraphRank     = "graph_rank"
)

var workloads = []workloadDef{
	{wlRepeatHot, "256 hot plans drawn Zipf(1.1): at least 99% result-cache hits, so queryd (parse, cache key, JSON, HTTP) does nearly all the work"},
	{wlScanUnique, "fresh uniform threshold in every request: always a cache miss, every chunk decoded, so colstore/core/encoding kernels dominate"},
	{wlScanSelective, "unique id-range predicates 64-4096 rows wide: zone maps prune over 99.9% of chunks, leaving loop dispatch, zone walk and admission"},
	{wlGraphRank, "pagerank iters=5 with explain so it executes every time: random gathers over compressed CSR and 6 scheduler loops, no table scan"},
}

// metricDef is one metric of the catalogue. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The wire-level error rate is reported as its complement: a benchmark
// metric must never read 0, and an error rate of 0 is the only acceptable
// value. The suite report still prints error_rate next to it.
//
// The timing bounds are as wide as the contract allows. On the 2-vCPU box
// this was written on, memory bandwidth swings between 4.6 and 10.9 GB/s
// from one second to the next, and ten runs of one commit spread 6-12%
// (quartile distance over median) on qps and p50_ms; a bound has to be a
// multiple of that before a breach means the code changed.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// codecNames are the metric-name spellings of encoding.Kinds, in that order.
var codecNames = []string{"plain", "bitpacked", "dict", "rle", "delta", "for"}

// probeWidths are the bit widths the bitpack probes cover: w33 takes the
// generic kernel, w64 the uncompressed fast path.
var probeWidths = []uint{4, 16, 33, 64}

// probeMetrics lists the layer metrics measured in the benchmark process,
// one layer (= repo module) per block.
func probeMetrics() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{Name: name, Unit: unit, Better: better}) }

	add("host.sum64_gbps", "GB/s", "higher")
	add("host.triad_gbps", "GB/s", "higher")

	for _, kernel := range []string{"sum", "cmpmask"} {
		for _, w := range probeWidths {
			add(fmt.Sprintf("bitpack.%s_ns_per_elem.w%d", kernel, w), "ns/elem", "lower")
		}
	}
	add("bitpack.gather_ns_per_elem.w16", "ns/elem", "lower")

	for _, c := range codecNames {
		add("encoding.sum_ns_per_elem."+c, "ns/elem", "lower")
		add("encoding.cmpmask_ns_per_elem."+c, "ns/elem", "lower")
		add("encoding.build_ns_per_elem."+c, "ns/elem", "lower")
		add("encoding.bytes_per_elem."+c, "B/elem", "lower")
	}

	add("core.reduce_ns_per_elem", "ns/elem", "lower")
	add("core.mask_ns_per_elem", "ns/elem", "lower")
	add("core.masked_reduce_ns_per_elem.sel01", "ns/elem", "lower")
	add("core.masked_reduce_ns_per_elem.sel50", "ns/elem", "lower")
	add("core.gather_ns_per_elem", "ns/elem", "lower")
	add("core.zone_prune_ns_per_chunk", "ns/chunk", "lower")
	add("core.reencode_ns_per_elem", "ns/elem", "lower")
	add("core.allocate_ns_per_elem", "ns/elem", "lower")

	for _, shape := range []string{"lib_1batch", "lib_64batch", "sched_1batch", "sched_64batch"} {
		add("rts.dispatch_us."+shape, "us", "lower")
	}
	add("rts.reduce_sum_gbps", "GB/s", "higher")

	for _, p := range []string{"p0", "p1", "p2"} {
		add("colstore.agg_mrows_per_s."+p, "Mrows/s", "higher")
	}
	add("colstore.groupby_mrows_per_s.dense", "Mrows/s", "higher")
	add("colstore.groupby_mrows_per_s.sparse", "Mrows/s", "higher")
	add("colstore.multiscan_mrows_per_s.q4", "Mrows/s", "higher")
	add("colstore.pruned_agg_us", "us", "lower")
	add("colstore.add_column_mrows_per_s", "Mrows/s", "higher")
	add("colstore.reencode_mrows_per_s", "Mrows/s", "higher")
	add("colstore.payload_bytes_per_row", "B/row", "lower")

	add("analytics.pagerank_medges_per_s", "Medges/s", "higher")
	add("analytics.degree_medges_per_s", "Medges/s", "higher")
	add("analytics.bfs_medges_per_s", "Medges/s", "higher")

	add("queryd.plan_parse_us", "us", "lower")
	add("queryd.handle_hit_us", "us", "lower")
	for _, path := range []string{"hit", "miss"} {
		add("queryd.allocs_per_query."+path, "allocs", "lower")
		add("queryd.bytes_per_query."+path, "B", "lower")
	}
	return m
}

// tracedMetrics are the layer metrics that come out of a workload's traced
// run. The suite report names them <name>.<workload>; a single-workload
// run prints the bare name.
var tracedMetrics = []metricDef{
	{Name: "net.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "queryd.server_ms", Unit: "ms", Better: "lower"},
	{Name: "queryd.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "queryd.cache_hit_rate", Unit: "share", Better: "higher"},
	{Name: "queryd.shared_share", Unit: "share", Better: "higher"},
	{Name: "colstore.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.chunks_pruned_share", Unit: "share", Better: "higher"},
	{Name: "rts.morsels_per_query", Unit: "count", Better: "lower"},
	{Name: "loadgen.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.qps_spread", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// perLayer is every layer metric of BENCHMARK.json: the traced-run
// metrics first, then the probes.
func perLayer() []metricDef {
	return append(append([]metricDef{}, tracedMetrics...), probeMetrics()...)
}
