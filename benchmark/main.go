// Command benchmark is the repo's measured benchmark: it builds
// ./cmd/saserve, drives the shipping binary in its shipping configuration
// with four seeded traffic mixes, checks the answers, and reports five
// end-to-end metrics per workload plus the layer metrics that explain
// them. See README.md for the catalogue and BENCHMARK.json for the
// contract.
//
// With -workload and -trace it runs one workload once and ends its output
// with one JSON line; without them it runs the whole suite, prints every
// metric as "name value unit", and writes out/report.json and
// out/trace.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"

	"smartarrays/internal/graph"
)

func main() {
	workload := flag.String("workload", "", "run this workload only (default: all four)")
	seed := flag.Uint64("seed", 11, "workload seed; the dataset seed is derived from it")
	seconds := flag.Float64("seconds", 20, "measured window in seconds; every other window scales with it")
	trace := flag.Int("trace", -1, "0: measured runs only; 1: traced runs and layer probes only; -1: both")
	repeat := flag.Int("repeat", 1, "run the suite this many times and compare the end-to-end metrics of the first two")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace, repeat int) error {
	// Two closed-loop clients and a two-worker server are the load this
	// benchmark is sized for; on one CPU it would measure the run queue.
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("needs at least 2 CPUs, found %d", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(2)
	// The load generator shares the two cores with the server, so its own
	// garbage collector is part of what is measured. Left to pace itself by
	// live heap, an identical repeat_hot run read 30% faster late in a long
	// harness process (large heap, rare collections) than in a fresh one.
	// A fixed ceiling makes collections rare and alike in both.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30)
	if seconds < 1 || trace < -1 || trace > 1 || repeat < 1 || flag.NArg() > 0 {
		return errors.New("usage: [-workload name] [-seed n] [-seconds s>=1] [-trace 0|1] [-repeat n>=1]")
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if workload == "" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Captured stderr is per invocation: a panic line from an earlier one
	// must not fail this one.
	old, _ := filepath.Glob(filepath.Join(outDir, "saserve.*.stderr"))
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	bin, err := buildSaserve(root, outDir)
	if err != nil {
		return err
	}
	e := &env{outDir: outDir, bin: bin, reaper: newReaper(), seed: seed, seconds: seconds}
	defer e.reaper.killAll()

	rep := newReport(root, e)
	for i := 0; i < repeat; i++ {
		set, err := runSet(e, names, trace)
		if err != nil {
			return err
		}
		rep.Sets = append(rep.Sets, set)
		set.print(os.Stdout, len(names) == 1)
		if err := set.audit(names, trace); err != nil {
			return err
		}
	}
	agree := rep.compareSets(os.Stdout)
	if err := rep.write(outDir); err != nil {
		return err
	}

	if len(names) == 1 && trace >= 0 {
		// The single-run contract: one JSON object on the last line, and
		// exit 0 even when the answers were wrong — "correct" says so, and
		// stderr says why.
		for _, r := range rep.Sets[0].Runs {
			for _, p := range r.Problems {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.Workload, p)
			}
		}
		return rep.Sets[0].printResultLine(os.Stdout, names[0], trace)
	}
	var problems []string
	for _, set := range rep.Sets {
		for _, r := range set.Runs {
			for _, p := range r.Problems {
				problems = append(problems, r.Workload+": "+p)
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems, first: %s", len(problems), problems[0])
	}
	if !agree {
		return errors.New("repeated sets disagree by more than a bound")
	}
	return nil
}

// findRoot locates the checkout: the harness runs from benchmark/ (run.sh,
// go run -C benchmark .) or from the root itself.
func findRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "saserve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find cmd/saserve: run from the repo root or from benchmark/")
}

// runSet runs the selected workloads once: measured runs first, then the
// traced runs and, after them, the layer probes. The in-process dataset
// and the oracles over it are built once, before any server starts; a
// measured graph_rank run alone builds the graph only.
func runSet(e *env, names []string, trace int) (*reportSet, error) {
	set := newReportSet()
	var loc *local
	var orc *oracle
	var g *graph.SmartCSR
	if trace == 0 && slices.Equal(names, []string{wlGraphRank}) {
		ds, err := buildGraph(e.seed)
		if err != nil {
			return nil, err
		}
		defer ds.Free()
		g = ds.Graph
	} else {
		var err error
		if loc, err = newLocal(e.seed); err != nil {
			return nil, err
		}
		defer loc.close()
		if orc, err = newOracle(loc.ds.Table); err != nil {
			return nil, err
		}
		g = loc.ds.Graph
	}
	var ranks *rankOracle
	if slices.Contains(names, wlGraphRank) {
		ranks = newRankOracle(g, rankIters)
	}
	if trace != 1 {
		for _, wl := range names {
			r, err := runMeasured(e, wl, newVerifier(wl, orc, ranks))
			if err != nil {
				return nil, err
			}
			set.addMeasured(r)
		}
	}
	if trace != 0 {
		for _, wl := range names {
			r, err := runTraced(e, wl, loc, newVerifier(wl, orc, ranks))
			if err != nil {
				return nil, err
			}
			set.addTraced(r)
		}
		probes, err := runProbes(e.seed, loc)
		if err != nil {
			return nil, err
		}
		set.addProbes(probes)
	}
	return set, nil
}

// resultLine is the single-run output contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *reportSet) printResultLine(w io.Writer, wl string, trace int) error {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range s.Runs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		line.Correct = line.Correct && len(r.Problems) == 0 && r.Failed == 0
	}
	if trace == 0 {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metricValue{s.EndToEnd[wl][d.Name], d.Unit}
		}
	} else {
		for _, d := range tracedMetrics {
			line.Metrics[d.Name] = metricValue{s.Layers[d.Name+"."+wl], d.Unit}
		}
		for _, d := range probeMetrics() {
			line.Metrics[d.Name] = metricValue{s.Layers[d.Name], d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// audit holds a finished set to the catalogue: every metric the selected
// runs should have produced is there and finite, and nothing else is.
func (s *reportSet) audit(names []string, trace int) error {
	want := map[string]bool{}
	if trace != 0 {
		for _, d := range probeMetrics() {
			want[d.Name] = true
		}
	}
	for _, wl := range names {
		if trace != 1 {
			for _, d := range endToEnd {
				want[d.Name+"."+wl] = true
			}
		}
		if trace != 0 {
			for _, d := range tracedMetrics {
				want[d.Name+"."+wl] = true
			}
		}
	}
	got := map[string]float64{}
	for name, v := range s.Layers {
		got[name] = v
	}
	for wl, vals := range s.EndToEnd {
		for name, v := range vals {
			got[name+"."+wl] = v
		}
	}
	for _, name := range sortedKeys(want) {
		if v, ok := got[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	for _, name := range sortedKeys(got) {
		if !want[name] {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}
