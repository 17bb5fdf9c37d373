// Command sabench regenerates the paper's aggregation experiments and the
// machine tables behind them:
//
//	sabench -fig 2        Figure 2 — the four regimes on the 18-core machine
//	sabench -fig 3        Figure 3 — the five interop paths (measured)
//	sabench -fig 10       Figure 10 — the full bits x placement x language sweep
//	sabench -fig table1   Table 1 — the modeled machines and calibrated model
//	                      parameters (-machine NAME prints one preset instead)
//	sabench -fig stream   STREAM (Copy/Scale/Add/Triad) over smart arrays per
//	                      placement on both Table 1 machines (§5.1's motivation)
//	sabench -fig ablate   ablations of the calibrated design choices
//	                      (DESIGN.md §5) and the regime crossover search
//
// Each aggregation and STREAM run really executes the workload at
// -elements per array on the simulated machine (verifying the results) and
// models the paper-scale (4 GB per array) run with the calibrated
// performance model.
//
// Observability: -metrics-out writes the run's aggregate metrics as JSON,
// -trace writes the structured event log (RTS loop statistics, counter
// snapshots) as JSONL, -serve exposes the live introspection endpoints
// (/metrics /arrays /trace /decisions) with per-array telemetry enabled
// while the run executes, and -pprof/-cpuprofile/-memprofile profile the
// harness itself.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"smartarrays/internal/bench"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/obs/serve"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "sabench:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested figure or table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sabench", flag.ContinueOnError)
	fig := fs.String("fig", "2", "what to regenerate: 2, 3, 10, table1, stream, or ablate")
	elements := fs.Uint64("elements", 1<<20, "elements per array for the real run")
	verify := fs.Bool("verify", true, "verify real runs against plain references")
	steal := fs.Bool("steal", false, "enable cross-socket work stealing in the real runs")
	csvPath := fs.String("csv", "", "also write the rows of figure 2, 3 or 10 as CSV to this file")
	machineName := fs.String("machine", "", "with -fig table1: print one preset (small, large, uma, callisto) instead")
	var of obs.Flags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.Start(); err != nil {
		return err
	}

	var rec *obs.Recorder
	if of.Active() {
		rec = obs.NewRecorder(0)
	}
	var reg *obs.ArrayRegistry
	if of.Serve != "" {
		reg = obs.NewArrayRegistry()
		addr, _, err := serve.New(rec, reg, nil).Start(of.Serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sabench: introspection server on http://%s\n", addr)
	}
	opts := bench.Options{Elements: *elements, GraphVertices: 1000, Verify: *verify, Recorder: rec, Steal: *steal, Arrays: reg}

	if err := figure(stdout, *fig, opts, *csvPath, *machineName); err != nil {
		return err
	}
	return of.Finish(rec)
}

// figure runs one figure or table and prints it to stdout.
func figure(stdout io.Writer, fig string, opts bench.Options, csvPath, machineName string) error {
	switch fig {
	case "2":
		rows, err := bench.RunFigure2(opts)
		if err != nil {
			return err
		}
		bench.PrintAggTable(stdout,
			"Figure 2: parallel aggregation, 18-core machine (paper: 201/43 -> 122/71 -> 109/80 -> 62/73)", rows)
		return writeCSV(csvPath, func(f *os.File) error { return bench.WriteAggCSV(f, rows) })
	case "3":
		rows, err := bench.RunFigure3(opts)
		if err != nil {
			return err
		}
		bench.PrintInteropTable(stdout, rows)
		return writeCSV(csvPath, func(f *os.File) error { return bench.WriteInteropCSV(f, rows) })
	case "10":
		rows, err := bench.RunFigure10(opts)
		if err != nil {
			return err
		}
		bench.PrintAggTable(stdout, "Figure 10: aggregation sweep (bits x placement x language x machine)", rows)
		return writeCSV(csvPath, func(f *os.File) error { return bench.WriteAggCSV(f, rows) })
	case "table1":
		return printTable1(stdout, machineName)
	case "stream":
		rows, err := bench.RunStream(opts)
		if err != nil {
			return err
		}
		bench.PrintStreamTable(stdout, rows)
		return nil
	case "ablate":
		bench.PrintAblations(stdout, bench.RunAblations())
		bench.PrintCrossovers(stdout, bench.RunCrossovers())
		return nil
	default:
		return fmt.Errorf("unknown figure %q (want 2, 3, 10, table1, stream, or ablate)", fig)
	}
}

// printTable1 prints the modeled machines (paper Table 1) and the
// calibrated model parameters every experiment uses, or one preset's
// derived characteristics when name is set.
func printTable1(w io.Writer, name string) error {
	if name != "" {
		spec, err := machine.ByName(name)
		if err != nil {
			return err
		}
		printSpec(w, spec)
		return nil
	}
	bench.PrintTable1(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Calibrated model parameters (fixed against Figure 2, see DESIGN.md §5):")
	for _, spec := range bench.Machines() {
		fmt.Fprintf(w, "  %s: IPC_eff=%.1f remote-stall=%.2f exec-rate=%.1f Ginstr/s/socket\n",
			spec.Name, spec.IPCEff, spec.RemoteStallFactor, spec.ExecRate()/1e9)
	}
	return nil
}

func printSpec(w io.Writer, s *machine.Spec) {
	fmt.Fprintln(w, s)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "sockets\t%d\n", s.Sockets)
	fmt.Fprintf(tw, "cores/socket\t%d\n", s.CoresPerSocket)
	fmt.Fprintf(tw, "threads/core\t%d\n", s.ThreadsPerCore)
	fmt.Fprintf(tw, "hw threads\t%d\n", s.HWThreads())
	fmt.Fprintf(tw, "clock\t%.1f GHz\n", s.ClockGHz)
	fmt.Fprintf(tw, "memory/socket\t%d GB\n", s.MemPerSocketGB)
	fmt.Fprintf(tw, "local latency\t%.0f ns\n", s.LocalLatencyNs)
	fmt.Fprintf(tw, "remote latency\t%.0f ns\n", s.RemoteLatencyNs)
	fmt.Fprintf(tw, "local bandwidth\t%.1f GB/s\n", s.LocalBWGBs)
	fmt.Fprintf(tw, "remote bandwidth\t%.1f GB/s\n", s.RemoteBWGBs)
	fmt.Fprintf(tw, "total local bandwidth\t%.1f GB/s\n", s.TotalLocalBWGBs())
	fmt.Fprintf(tw, "LLC/socket\t%.0f MB\n", s.LLCMB)
	fmt.Fprintf(tw, "exec rate/socket\t%.1f Ginstr/s\n", s.ExecRate()/1e9)
	tw.Flush()
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
