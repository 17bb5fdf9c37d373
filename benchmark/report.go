package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// header records what a reader needs to compare two reports: the code, the
// toolchain, the host, and the knobs of the run.
type header struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	CPUModel  string  `json:"cpu_model"`
	NProc     int     `json:"nproc"`
	Seed      uint64  `json:"seed"`
	Clients   int     `json:"clients"`
	WarmupS   float64 `json:"warmup_s"`
	WindowS   float64 `json:"window_s"`
	SliceS    float64 `json:"slice_s"`
	TracedS   float64 `json:"traced_pass_s"`
}

// report is out/report.json: one set per -repeat, and their comparison.
type report struct {
	Schema string       `json:"schema"`
	Header header       `json:"header"`
	Sets   []*reportSet `json:"sets"`
	Repeat []repeatRow  `json:"repeat,omitempty"`
}

// reportSet is one pass over the selected workloads.
type reportSet struct {
	// EndToEnd is workload -> metric -> value.
	EndToEnd map[string]map[string]float64 `json:"end_to_end"`
	// ErrorRate is what ok_share is the complement of, per workload.
	ErrorRate map[string]float64 `json:"error_rate"`
	// Layers holds traced metrics as <name>.<workload> and probes bare.
	Layers map[string]float64 `json:"per_layer"`
	// RatioToHostSum is each ns/elem probe over the same run's plain
	// 64-bit sum.
	RatioToHostSum map[string]float64 `json:"ratio_to_host_sum64,omitempty"`
	// SelfTimeMS is workload -> span name -> total self time.
	SelfTimeMS map[string]map[string]float64 `json:"self_time_ms,omitempty"`
	Runs       []*runResult                  `json:"runs"`
}

type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func newReport(root string, e *env) *report {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown", NProc: runtime.NumCPU(),
		Seed: e.seed, Clients: numClients,
		WarmupS: e.window(warmupShare).Seconds(), WindowS: e.window(1).Seconds(),
		SliceS: e.window(1).Seconds() / numSlices, TracedS: e.window(tracedShare).Seconds(),
	}
	// A checkout need not be a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return &report{Schema: "smartarrays/benchmark_report/v1", Header: h}
}

func newReportSet() *reportSet {
	return &reportSet{
		EndToEnd: map[string]map[string]float64{}, ErrorRate: map[string]float64{},
		Layers: map[string]float64{}, SelfTimeMS: map[string]map[string]float64{},
	}
}

func (s *reportSet) addMeasured(r *runResult) {
	s.Runs = append(s.Runs, r)
	s.EndToEnd[r.Workload] = r.Metrics
	s.ErrorRate[r.Workload] = 1 - r.Metrics["ok_share"]
}

func (s *reportSet) addTraced(r *runResult) {
	s.Runs = append(s.Runs, r)
	for name, v := range r.Metrics {
		s.Layers[name+"."+r.Workload] = v
	}
	s.SelfTimeMS[r.Workload] = selfTimesMS(r.trace.spans)
}

func (s *reportSet) addProbes(m map[string]float64) {
	for name, v := range m {
		s.Layers[name] = v
	}
	s.RatioToHostSum = ratiosToHost(m)
}

// print writes every metric of the set as "name value unit". bare drops
// the workload suffix, for single-workload runs.
func (s *reportSet) print(w io.Writer, bare bool) {
	suffix := func(wl string) string {
		if bare {
			return ""
		}
		return "." + wl
	}
	for _, wl := range workloads {
		vals, ok := s.EndToEnd[wl.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%s%s %.6g %s\n", d.Name, suffix(wl.Name), vals[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "error_rate%s %.6g share\n", suffix(wl.Name), s.ErrorRate[wl.Name])
		for _, r := range s.Runs {
			if r.Workload == wl.Name && r.trace == nil {
				fmt.Fprintf(w, "# %s: %d samples, p%g %.4g ms, slices %.5g 1/s\n", wl.Name, r.Attempted, r.Window.TailPct, r.Window.TailMS, r.Window.SliceQPS)
			}
		}
	}
	for _, wl := range workloads {
		for _, d := range tracedMetrics {
			if v, ok := s.Layers[d.Name+"."+wl.Name]; ok {
				fmt.Fprintf(w, "%s%s %.6g %s\n", d.Name, suffix(wl.Name), v, d.Unit)
			}
		}
		for _, name := range sortedKeys(s.SelfTimeMS[wl.Name]) {
			fmt.Fprintf(w, "# %s self time %s %.4g ms\n", wl.Name, name, s.SelfTimeMS[wl.Name][name])
		}
	}
	for _, d := range probeMetrics() {
		v, ok := s.Layers[d.Name]
		if !ok {
			continue
		}
		if ratio, ok := s.RatioToHostSum[d.Name]; ok {
			fmt.Fprintf(w, "%s %.6g %s (%.3gx host.sum64)\n", d.Name, v, d.Unit, ratio)
		} else {
			fmt.Fprintf(w, "%s %.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, r := range s.Runs {
		for _, p := range r.Problems {
			fmt.Fprintf(w, "# PROBLEM %s: %s\n", r.Workload, p)
		}
	}
}

// compareSets prints, for each end-to-end metric and workload, the first
// two sets' values, their relative difference and the bound, and reports
// whether every pair agrees within its bound.
func (r *report) compareSets(w io.Writer) bool {
	if len(r.Sets) < 2 {
		return true
	}
	agree := true
	fmt.Fprintln(w, "# repeatability: workload metric first second rel_diff bound")
	for _, wl := range workloads {
		a, b := r.Sets[0].EndToEnd[wl.Name], r.Sets[1].EndToEnd[wl.Name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			row := repeatRow{Workload: wl.Name, Metric: d.Name, First: a[d.Name], Second: b[d.Name], Bound: d.Bound}
			row.RelDiff = math.Abs(row.Second-row.First) / row.First
			row.Within = row.RelDiff <= d.Bound
			agree = agree && row.Within
			verdict := "ok"
			if !row.Within {
				verdict = "DISAGREE"
			}
			fmt.Fprintf(w, "%s %s %.6g %.6g %.4f %.3f %s\n", row.Workload, row.Metric, row.First, row.Second, row.RelDiff, row.Bound, verdict)
			r.Repeat = append(r.Repeat, row)
		}
	}
	return agree
}

// write flushes the report and the spans kept in memory during the run.
// Span IDs are per run while recording; here they become unique per file.
func (r *report) write(outDir string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	trace := struct {
		Spans []span `json:"spans"`
	}{Spans: []span{}}
	for _, set := range r.Sets {
		for _, run := range set.Runs {
			if run.trace == nil {
				continue
			}
			offset := len(trace.Spans)
			for _, sp := range run.trace.spans {
				sp.ID += offset
				if sp.Parent != 0 {
					sp.Parent += offset
				}
				sp.RequestID += offset
				trace.Spans = append(trace.Spans, sp)
			}
		}
	}
	if b, err = json.Marshal(trace); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace.json"), append(b, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
