// Command sagraph regenerates the paper's graph analytics experiments:
//
//	sagraph -fig 1    Figure 1 — PageRank original vs replicated (8-core)
//	sagraph -fig 11   Figure 11 — degree centrality series, both machines
//	sagraph -fig 12   Figure 12 — PageRank series, both machines
//
// Real runs execute on a -vertices synthetic graph (uniform degree-3 for
// degree centrality, Twitter-like power law for PageRank) and are verified
// against plain references; the model evaluates the paper-scale datasets
// (1.5G vertices / 42M-vertex 1.5G-edge Twitter).
//
// Observability: -metrics-out writes the run's aggregate metrics as JSON,
// -trace the structured event log (RTS loop statistics) as JSONL, -serve
// exposes the live introspection endpoints (/metrics /arrays /trace
// /decisions) with per-array telemetry enabled, and
// -pprof/-cpuprofile/-memprofile profile the harness itself. Any of the
// first three also prints a work-stealing summary of the recorded loops.
package main

import (
	"flag"
	"fmt"
	"os"

	"smartarrays/internal/bench"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/obs/serve"
)

func main() {
	fig := flag.Int("fig", 12, "figure to regenerate: 1, 11, or 12")
	vertices := flag.Uint64("vertices", 20000, "vertices for the real (verified) run")
	verify := flag.Bool("verify", true, "verify real runs against plain references")
	steal := flag.Bool("steal", true, "enable cross-socket work stealing in the real runs")
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
		addr, _, err := serve.New(rec, reg, nil).Start(of.Serve)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "sagraph: introspection server on http://%s\n", addr)
	}
	opts := bench.Options{Elements: 1 << 18, GraphVertices: *vertices, Verify: *verify, Recorder: rec, Steal: *steal, Arrays: reg}

	switch *fig {
	case 1:
		orig, repl, err := bench.RunFigure1(opts)
		exitOn(err)
		fmt.Println("Figure 1: PageRank on the 8-core machine (paper: >2x time and bandwidth)")
		fmt.Printf("  original               %7.0f ms   %5.1f GB/s\n", orig.TimeMs, orig.BandwidthGBs)
		fmt.Printf("  smart arrays w/ repl.  %7.0f ms   %5.1f GB/s\n", repl.TimeMs, repl.BandwidthGBs)
		fmt.Printf("  speedup %.2fx, bandwidth ratio %.2fx\n",
			orig.TimeMs/repl.TimeMs, repl.BandwidthGBs/orig.BandwidthGBs)
	case 11:
		rows, err := bench.RunFigure11(opts)
		exitOn(err)
		bench.PrintGraphTable(os.Stdout,
			fmt.Sprintf("Figure 11: degree centrality (modeled at %d vertices, degree %d)",
				uint64(bench.PaperDegreeVertices), bench.PaperDegreeDegree), rows)
		exitOn(writeCSV(*csvPath, rows))
	case 12:
		rows, err := bench.RunFigure12(opts)
		exitOn(err)
		bench.PrintGraphTable(os.Stdout,
			fmt.Sprintf("Figure 12: PageRank (modeled at the Twitter graph: %dM vertices, %dM edges, %d iterations)",
				bench.PaperTwitterVertices/1_000_000, bench.PaperTwitterEdges/1_000_000, bench.PaperPageRankIters), rows)
		printMemorySavings(rows)
		exitOn(writeCSV(*csvPath, rows))
	default:
		fmt.Fprintf(os.Stderr, "sagraph: unknown figure %d (want 1, 11, or 12)\n", *fig)
		os.Exit(2)
	}

	printStealStats(rec)
	exitOn(of.Finish(rec))
}

// printStealStats summarizes the run's work-stealing behaviour from the
// recorded loop statistics: per-loop steal counts (for loops that stole)
// and the claim imbalance ratio (max/mean per-worker claims) the stealing
// path is meant to pull toward 1.
func printStealStats(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	var loops, stealing int
	var steals uint64
	var worstRatio float64
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindLoop || ev.Loop == nil {
			continue
		}
		ls := ev.Loop
		loops++
		if ls.MaxMeanClaimRatio > worstRatio {
			worstRatio = ls.MaxMeanClaimRatio
		}
		if ls.Steals == 0 {
			continue
		}
		stealing++
		steals += ls.Steals
		fmt.Printf("  loop [%d,%d) grain %d: %d/%d batches stolen, imbalance ratio %.2f\n",
			ls.Begin, ls.End, ls.Grain, ls.Steals, ls.Batches, ls.MaxMeanClaimRatio)
	}
	fmt.Printf("work stealing: %d loops recorded, %d with steals, %d batches stolen, worst imbalance ratio %.2f\n",
		loops, stealing, steals, worstRatio)
}

func printMemorySavings(rows []bench.GraphResult) {
	var u, ve uint64
	for _, r := range rows {
		if r.Machine == machine.X52Small().Name && r.Label == "replicated" {
			switch r.Compression {
			case "U":
				u = r.MemoryBytes
			case "V+E":
				ve = r.MemoryBytes
			}
		}
	}
	if u > 0 && ve > 0 {
		fmt.Printf("memory space: U %.1f GB vs V+E %.1f GB — %.1f%% saved (paper: ~21%%)\n",
			float64(u)/machine.GB, float64(ve)/machine.GB, 100*(1-float64(ve)/float64(u)))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sagraph:", err)
		os.Exit(1)
	}
}

func writeCSV(path string, rows []bench.GraphResult) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return bench.WriteGraphCSV(f, rows)
}
