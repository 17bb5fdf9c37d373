// Package serve is the live introspection server: a stdlib-only HTTP
// surface over a Recorder and an ArrayRegistry, so a running workload can
// be inspected while the adaptivity engine is consuming the same
// telemetry.
//
// Endpoints:
//
//	/metrics    Prometheus-style text exposition: event/loop/decision
//	            aggregates, per-socket counters, latency histograms,
//	            per-array access telemetry, and where the memory is —
//	            smart-array payload mapped outside the Go heap beside
//	            the heap's own live bytes and goal.
//	/arrays     JSON per-array access profiles with the derived ratios
//	            (random share, chunk-decode share, locality, selectivity).
//	/trace      JSONL drain of the recorder's event ring, oldest first.
//	/decisions  JSON adaptivity audit log: decision, multi-decision, and
//	            drift events retained in the ring.
//
// The server only reads: every handler snapshots under the same locks the
// producers use, so scraping mid-run is safe and never blocks a loop
// barrier for longer than a snapshot copy.
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
)

// Server exposes a recorder, a registry and a memory over HTTP. Any source
// may be nil; its endpoints or metrics then serve empty payloads.
type Server struct {
	rec *obs.Recorder
	reg *obs.ArrayRegistry
	mem *memsim.Memory
}

// New creates a server over the given telemetry sources; mem is the
// memory whose mapped payload /metrics reports.
func New(rec *obs.Recorder, reg *obs.ArrayRegistry, mem *memsim.Memory) *Server {
	return &Server{rec: rec, reg: reg, mem: mem}
}

// Handler returns the endpoint mux (also usable under a caller's mux or
// httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/arrays", s.handleArrays)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/decisions", s.handleDecisions)
	return mux
}

// ReadHeaderTimeout bounds how long a connection may take to deliver a
// request's line and headers, on this server and on queryd's: without it
// a client that stops mid-request holds its connection open for good.
// Neither server sets a write timeout, which would cut long replies, nor
// an idle timeout: closing an idle keep-alive connection can race the
// client's next POST, which Go's client does not retry.
const ReadHeaderTimeout = 2 * time.Second

// Start binds addr (":0" picks a free port), serves in a background
// goroutine, and returns the bound address plus a stop function. The
// benchmark CLIs call this behind their -serve flag.
func (s *Server) Start(addr string) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: ReadHeaderTimeout}
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String(), srv.Close, nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "smartarrays introspection server")
	fmt.Fprintln(w, "  /metrics    Prometheus-style text metrics")
	fmt.Fprintln(w, "  /arrays     per-array access profiles (JSON)")
	fmt.Fprintln(w, "  /trace      event ring drain (JSONL)")
	fmt.Fprintln(w, "  /decisions  adaptivity audit log (JSON)")
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metricsWriter accumulates exposition lines, emitting each metric
// family's HELP/TYPE header once.
type metricsWriter struct {
	b      strings.Builder
	headed map[string]bool
}

func (mw *metricsWriter) head(name, typ, help string) {
	if mw.headed == nil {
		mw.headed = make(map[string]bool)
	}
	if mw.headed[name] {
		return
	}
	mw.headed[name] = true
	fmt.Fprintf(&mw.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (mw *metricsWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&mw.b, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.rec.Metrics()
	mw := &metricsWriter{}

	mw.head("smartarrays_events_total", "counter", "Events recorded, including overwritten ones.")
	mw.sample("smartarrays_events_total", "", float64(m.Events))
	mw.head("smartarrays_events_dropped_total", "counter", "Events overwritten by ring wraparound.")
	mw.sample("smartarrays_events_dropped_total", "", float64(m.Dropped))

	mw.head("smartarrays_loops_total", "counter", "Parallel loop executions.")
	mw.sample("smartarrays_loops_total", "", float64(m.Loops.Loops))
	mw.head("smartarrays_loop_batches_total", "counter", "Batches claimed across all loops.")
	mw.sample("smartarrays_loop_batches_total", "", float64(m.Loops.Batches))
	mw.head("smartarrays_loop_steals_total", "counter", "Cross-socket batch steals.")
	mw.sample("smartarrays_loop_steals_total", "", float64(m.Loops.Steals))
	mw.head("smartarrays_loop_iterations_total", "counter", "Loop iterations scheduled.")
	mw.sample("smartarrays_loop_iterations_total", "", float64(m.Loops.Iterations))
	mw.head("smartarrays_loop_claim_imbalance", "gauge", "Per-loop (max-min)/mean worker claim spread.")
	mw.sample("smartarrays_loop_claim_imbalance", `stat="mean"`, m.Loops.MeanClaimImbalance)
	mw.sample("smartarrays_loop_claim_imbalance", `stat="max"`, m.Loops.MaxClaimImbalance)
	mw.head("smartarrays_loop_grain_efficiency", "gauge", "Mean iterations/(batches*grain).")
	mw.sample("smartarrays_loop_grain_efficiency", "", m.Loops.MeanGrainEfficiency)

	s.memoryMetrics(mw)

	mw.head("smartarrays_decisions_total", "counter", "Adaptivity decisions recorded.")
	mw.sample("smartarrays_decisions_total", "", float64(m.Decisions))
	mw.head("smartarrays_drifts_total", "counter", "Live-telemetry decision drift events.")
	mw.sample("smartarrays_drifts_total", "", float64(m.Drifts))

	for _, sc := range m.Counters {
		sock := `socket="` + strconv.Itoa(sc.Socket) + `"`
		mw.head("smartarrays_socket_instructions_total", "counter", "Modeled instructions per socket (latest snapshot).")
		mw.sample("smartarrays_socket_instructions_total", sock, float64(sc.Instructions))
		mw.head("smartarrays_socket_bytes_total", "counter", "Modeled DRAM traffic per socket by direction and locality (latest snapshot).")
		mw.sample("smartarrays_socket_bytes_total", sock+`,dir="read",locality="local"`, float64(sc.LocalReadBytes))
		mw.sample("smartarrays_socket_bytes_total", sock+`,dir="read",locality="remote"`, float64(sc.RemoteReadBytes))
		mw.sample("smartarrays_socket_bytes_total", sock+`,dir="write",locality="local"`, float64(sc.LocalWriteBytes))
		mw.sample("smartarrays_socket_bytes_total", sock+`,dir="write",locality="remote"`, float64(sc.RemoteWriteBytes))
		mw.head("smartarrays_socket_accesses_total", "counter", "Element accesses per socket (latest snapshot).")
		mw.sample("smartarrays_socket_accesses_total", sock+`,kind="all"`, float64(sc.Accesses))
		mw.sample("smartarrays_socket_accesses_total", sock+`,kind="random"`, float64(sc.RandomAccesses))
	}

	histNames := make([]string, 0, len(m.Histograms))
	for name := range m.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := m.Histograms[name]
		label := `name="` + promEscape(name) + `"`
		mw.head("smartarrays_latency_ns", "histogram", "Wall-time latency distributions (loop and span timings).")
		for _, b := range h.Buckets {
			mw.sample("smartarrays_latency_ns_bucket", label+`,le="`+strconv.FormatUint(b.LeNs, 10)+`"`, float64(b.Count))
		}
		mw.sample("smartarrays_latency_ns_bucket", label+`,le="+Inf"`, float64(h.Count))
		mw.sample("smartarrays_latency_ns_sum", label, float64(h.SumNs))
		mw.sample("smartarrays_latency_ns_count", label, float64(h.Count))
	}

	for _, t := range s.rec.Tenants().Snapshot() {
		labels := `tenant="` + promEscape(t.Tenant) + `",op="` + promEscape(t.Op) + `"`
		mw.head("smartarrays_tenant_requests_total", "counter", "Requests per tenant and operation (RED rate).")
		mw.sample("smartarrays_tenant_requests_total", labels, float64(t.Requests))
		mw.head("smartarrays_tenant_errors_total", "counter", "Errored requests per tenant and operation (RED errors).")
		mw.sample("smartarrays_tenant_errors_total", labels, float64(t.Errors))
		mw.head("smartarrays_tenant_slo_bad_total", "counter", "Requests that errored or exceeded the latency SLO.")
		mw.sample("smartarrays_tenant_slo_bad_total", labels, float64(t.SLOBad))
		mw.head("smartarrays_tenant_slo_burn_rate", "gauge", "Error-budget burn rate against the availability objective (1.0 = burning exactly at budget).")
		mw.sample("smartarrays_tenant_slo_burn_rate", labels, t.BurnRate)
		mw.head("smartarrays_tenant_latency_ns", "histogram", "Request latency per tenant and operation (RED duration).")
		for _, b := range t.Latency.Buckets {
			mw.sample("smartarrays_tenant_latency_ns_bucket", labels+`,le="`+strconv.FormatUint(b.LeNs, 10)+`"`, float64(b.Count))
		}
		mw.sample("smartarrays_tenant_latency_ns_bucket", labels+`,le="+Inf"`, float64(t.Latency.Count))
		mw.sample("smartarrays_tenant_latency_ns_sum", labels, float64(t.Latency.SumNs))
		mw.sample("smartarrays_tenant_latency_ns_count", labels, float64(t.Latency.Count))
	}

	for _, p := range s.reg.Profiles() {
		arr := `array="` + promEscape(p.Name) + `"`
		mw.head("smartarrays_array_length", "gauge", "Array length in elements.")
		mw.sample("smartarrays_array_length", arr, float64(p.Length))
		mw.head("smartarrays_array_bits", "gauge", "Array element width in bits.")
		mw.sample("smartarrays_array_bits", arr, float64(p.Bits))
		mw.head("smartarrays_array_folds_total", "counter", "Accounting calls into this profile: one per access-hook call, one per predicate pass.")
		mw.sample("smartarrays_array_folds_total", arr, float64(p.Folds))

		mw.head("smartarrays_array_elements_total", "counter", "Elements accessed per array by access method.")
		for _, me := range []struct {
			method string
			n      uint64
		}{
			{"scan", p.Access.ScanElems},
			{"reduce", p.Access.ReduceElems},
			{"gather", p.Access.GatherElems},
			{"init", p.Access.InitElems},
		} {
			mw.sample("smartarrays_array_elements_total", arr+`,method="`+me.method+`"`, float64(me.n))
		}
		mw.head("smartarrays_array_bytes_total", "counter", "Accounted DRAM traffic per array by locality.")
		mw.sample("smartarrays_array_bytes_total", arr+`,locality="local"`, float64(p.Access.LocalBytes))
		mw.sample("smartarrays_array_bytes_total", arr+`,locality="remote"`, float64(p.Access.RemoteBytes))

		mw.head("smartarrays_array_random_share", "gauge", "Fraction of reads that were random gathers.")
		mw.sample("smartarrays_array_random_share", arr, p.RandomShare())
		mw.head("smartarrays_array_chunk_decode_share", "gauge", "Fraction of reads served by chunked decode paths.")
		mw.sample("smartarrays_array_chunk_decode_share", arr, p.ChunkDecodeShare())
		mw.head("smartarrays_array_local_share", "gauge", "Fraction of accounted bytes served locally.")
		mw.sample("smartarrays_array_local_share", arr, p.LocalShare())
		mw.head("smartarrays_array_reads_per_element", "gauge", "Mean reads per element.")
		mw.sample("smartarrays_array_reads_per_element", arr, p.ReadsPerElement())
		if sel, ok := p.Selectivity(); ok {
			mw.head("smartarrays_array_selectivity", "gauge", "Observed predicate hit rate.")
			mw.sample("smartarrays_array_selectivity", arr, sel)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(mw.b.String()))
}

// heapSamples are the Go heap figures /metrics puts beside the mapped
// payload: the live heap as of the last collection, and the size at which
// the collector next runs.
var heapSamples = [...]struct{ name, metric, help string }{
	{"/gc/heap/live:bytes", "smartarrays_go_heap_live_bytes", "Go heap bytes live at the last collection (smart-array payload is not among them)."},
	{"/gc/heap/goal:bytes", "smartarrays_go_heap_goal_bytes", "Go heap size at which the collector next runs."},
}

// memoryMetrics writes where the process's memory is: smart-array payload
// mapped outside the Go heap (live and retired), then the heap itself.
func (s *Server) memoryMetrics(mw *metricsWriter) {
	if s.mem != nil {
		mw.head("smartarrays_memory_mapped_bytes", "gauge", "Smart-array payload mapped outside the Go heap, live and retired regions.")
		mw.sample("smartarrays_memory_mapped_bytes", "", float64(s.mem.MappedBytes()))
		mw.head("smartarrays_memory_retired_bytes", "gauge", "Payload of freed regions still mapped until no reader pin is held.")
		mw.sample("smartarrays_memory_retired_bytes", "", float64(s.mem.RetiredBytes()))
	}
	var samples [len(heapSamples)]metrics.Sample
	for i, h := range heapSamples {
		samples[i].Name = h.name
	}
	metrics.Read(samples[:])
	for i, h := range heapSamples {
		mw.head(h.metric, "gauge", h.help)
		mw.sample(h.metric, "", float64(samples[i].Value.Uint64()))
	}
}

// arrayView is the /arrays wire form: the raw profile plus the derived
// ratios, precomputed so consumers (dashboards, scripts) need no client
// logic.
type arrayView struct {
	obs.AccessProfile
	TotalElems       uint64   `json:"totalElems"`
	RandomShare      float64  `json:"randomShare"`
	ChunkDecodeShare float64  `json:"chunkDecodeShare"`
	LocalShare       float64  `json:"localShare"`
	ReadsPerElement  float64  `json:"readsPerElement"`
	Selectivity      *float64 `json:"selectivity,omitempty"`
}

func (s *Server) handleArrays(w http.ResponseWriter, _ *http.Request) {
	profiles := s.reg.Profiles()
	views := make([]arrayView, 0, len(profiles))
	for _, p := range profiles {
		v := arrayView{
			AccessProfile:    p,
			TotalElems:       p.TotalElems(),
			RandomShare:      p.RandomShare(),
			ChunkDecodeShare: p.ChunkDecodeShare(),
			LocalShare:       p.LocalShare(),
			ReadsPerElement:  p.ReadsPerElement(),
		}
		if sel, ok := p.Selectivity(); ok {
			v.Selectivity = &sel
		}
		views = append(views, v)
	}
	writeJSON(w, map[string]any{"arrays": views})
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.rec.WriteTrace(w)
}

func (s *Server) handleDecisions(w http.ResponseWriter, _ *http.Request) {
	var out []obs.Event
	for _, ev := range s.rec.Events() {
		switch ev.Kind {
		case obs.KindDecision, obs.KindMultiDecision, obs.KindDrift:
			out = append(out, ev)
		}
	}
	if out == nil {
		out = []obs.Event{}
	}
	writeJSON(w, map[string]any{"decisions": out})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
