package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func toManifest(defs []metricDef, bounded bool) []manifestMetric {
	out := make([]manifestMetric, len(defs))
	for i, d := range defs {
		out[i] = manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if bounded {
			b := d.Bound
			out[i].Bound = &b
		}
	}
	return out
}

// BENCHMARK.json and the catalogue the harness emits from must name the
// same workloads and metrics, with the same units, directions and bounds.
// On a mismatch the test prints the file the catalogue expects.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := got
	want.Workloads = workloads
	want.EndToEnd = toManifest(endToEnd, true)
	want.PerLayer = toManifest(perLayer(), false)
	gotJSON, _ := json.MarshalIndent(got, "", "  ")
	wantJSON, _ := json.MarshalIndent(want, "", "  ")
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("BENCHMARK.json differs from the catalogue; the catalogue expects:\n%s", wantJSON)
	}
	if len(got.Paths) != 1 || got.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", got.Paths)
	}
}

// The catalogue must stay inside the benchmark contract's limits.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := perLayer()
	if len(layers) < 1 || len(layers) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d layer metrics, %d end-to-end", len(layers), len(endToEnd))
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), layers...) {
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for _, d := range layers {
		check(d.Name)
	}
	// The suite report suffixes traced metrics with the workload.
	for _, d := range tracedMetrics {
		for _, w := range workloads {
			check(d.Name + "." + w.Name)
		}
	}
	if n := len(probeMetrics()) + len(tracedMetrics)*len(workloads); n != 111 {
		t.Errorf("%d layer metrics in the suite report, the issue counts 111", n)
	}
}

// Every metric a run emits is in the catalogue and the other way round:
// audit is what enforces it at run time, and the result line is built from
// the catalogue alone.
func TestRunsEmitTheCatalogue(t *testing.T) {
	set := newReportSet()
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	set.addMeasured(&runResult{Workload: wlScanUnique, Metrics: vals, Attempted: 3})
	for _, d := range tracedMetrics {
		set.Layers[d.Name+"."+wlScanUnique] = 1
	}
	for _, d := range probeMetrics() {
		set.Layers[d.Name] = 1
	}
	names := []string{wlScanUnique}
	if err := set.audit(names, -1); err != nil {
		t.Fatalf("a complete set fails the audit: %v", err)
	}
	for trace, defs := range [][]metricDef{endToEnd, perLayer()} {
		var out bytes.Buffer
		if err := set.printResultLine(&out, wlScanUnique, trace); err != nil {
			t.Fatal(err)
		}
		var line resultLine
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatalf("%v: %s", err, out.Bytes())
		}
		if len(line.Metrics) != len(defs) || !line.Correct || line.Attempted != 3 {
			t.Errorf("trace %d: %d metrics for %d definitions, correct %v, attempted %d", trace, len(line.Metrics), len(defs), line.Correct, line.Attempted)
		}
		for _, d := range defs {
			if m := line.Metrics[d.Name]; m.Unit != d.Unit || m.Value != 1 {
				t.Errorf("trace %d: %s = %+v, want 1 %s", trace, d.Name, m, d.Unit)
			}
		}
	}

	if err := set.audit([]string{wlScanUnique, wlGraphRank}, -1); err == nil {
		t.Error("audit passed a set that lacks a whole workload")
	}
	set.Layers["core.gather_ns_per_elem.typo"] = 1
	if err := set.audit(names, -1); err == nil {
		t.Error("audit passed a metric the catalogue does not have")
	}
	delete(set.Layers, "core.gather_ns_per_elem.typo")
	delete(set.Layers, "core.gather_ns_per_elem")
	if err := set.audit(names, -1); err == nil {
		t.Error("audit passed a set with a probe missing")
	}
	if err := set.audit(names, 0); err == nil {
		t.Error("audit of a measured-only run passed layer metrics")
	}
}
