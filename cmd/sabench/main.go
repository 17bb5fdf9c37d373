// Command sabench regenerates the paper's aggregation experiments:
//
//	sabench -fig 2    Figure 2 — the four regimes on the 18-core machine
//	sabench -fig 3    Figure 3 — the five interop paths (measured)
//	sabench -fig 10   Figure 10 — the full bits x placement x language sweep
//
// Each run really executes the workload at -elements per array on the
// simulated machine (verifying the sums) and models the paper-scale (4 GB
// per array) run with the calibrated performance model.
//
// Observability: -metrics-out writes the run's aggregate metrics as JSON,
// -trace writes the structured event log (RTS loop statistics, counter
// snapshots) as JSONL, -serve exposes the live introspection endpoints
// (/metrics /arrays /trace /decisions) with per-array telemetry enabled
// while the run executes, and -pprof/-cpuprofile/-memprofile profile the
// harness itself.
package main

import (
	"flag"
	"fmt"
	"os"

	"smartarrays/internal/bench"
	"smartarrays/internal/core"
	"smartarrays/internal/obs"
	"smartarrays/internal/obs/serve"
)

func main() {
	fig := flag.Int("fig", 2, "figure to regenerate: 2, 3, or 10")
	elements := flag.Uint64("elements", 1<<20, "elements per array for the real run")
	verify := flag.Bool("verify", true, "verify real runs against plain references")
	steal := flag.Bool("steal", false, "enable cross-socket work stealing in the real runs")
	csvPath := flag.String("csv", "", "also write the rows as CSV to this file")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	exitOn(of.Start())

	var rec *obs.Recorder
	if of.Active() {
		rec = obs.NewRecorder(0)
	}
	var reg *obs.ArrayRegistry
	if of.Serve != "" {
		reg = obs.NewArrayRegistry()
		core.SetArrayRegistry(reg)
		addr, _, err := serve.New(rec, reg).Start(of.Serve)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "sabench: introspection server on http://%s\n", addr)
	}
	opts := bench.Options{Elements: *elements, GraphVertices: 1000, Verify: *verify, Recorder: rec, Steal: *steal, Arrays: reg}

	switch *fig {
	case 2:
		rows, err := bench.RunFigure2(opts)
		exitOn(err)
		bench.PrintAggTable(os.Stdout,
			"Figure 2: parallel aggregation, 18-core machine (paper: 201/43 -> 122/71 -> 109/80 -> 62/73)", rows)
		exitOn(writeCSV(*csvPath, func(f *os.File) error { return bench.WriteAggCSV(f, rows) }))
	case 3:
		rows, err := bench.RunFigure3(opts)
		exitOn(err)
		bench.PrintInteropTable(os.Stdout, rows)
		exitOn(writeCSV(*csvPath, func(f *os.File) error { return bench.WriteInteropCSV(f, rows) }))
	case 10:
		rows, err := bench.RunFigure10(opts)
		exitOn(err)
		bench.PrintAggTable(os.Stdout, "Figure 10: aggregation sweep (bits x placement x language x machine)", rows)
		exitOn(writeCSV(*csvPath, func(f *os.File) error { return bench.WriteAggCSV(f, rows) }))
	default:
		fmt.Fprintf(os.Stderr, "sabench: unknown figure %d (want 2, 3, or 10)\n", *fig)
		os.Exit(2)
	}

	exitOn(of.Finish(rec))
}

func writeCSV(path string, fn func(*os.File) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sabench:", err)
		os.Exit(1)
	}
}
