// Command saadapt evaluates the adaptivity engine (paper §6.3) over the
// benchmark grid, reporting decision accuracy, regret, and the improvement
// over the best static configuration. With -table2 it prints the paper's
// trade-off matrix; with -multi it demonstrates the multi-array extension
// (the joint placement the paper lists as future work) on the PageRank
// array set.
//
// With -live it runs the drifting-workload demonstration: a scan-profiled
// §6 decision re-scored against live per-array telemetry until the access
// pattern flips it, emitting DecisionDrift audit events.
//
// With -reencode it runs the representation-drift demonstration: a
// clustered column migrates bit-packed -> RLE under fused scans, then
// back to uncompressed once random gathers dominate the measured mix,
// emitting Reencode audit events.
//
// Observability: -trace writes one structured decision event per
// adaptivity step (candidate set, profiled counter inputs, chosen
// configuration, estimated vs realized cost) as JSONL; -metrics-out
// writes the recorder's aggregate metrics; -serve exposes the live
// introspection endpoints (/metrics /arrays /trace /decisions);
// -pprof/-cpuprofile/-memprofile profile the evaluation itself.
package main

import (
	"flag"
	"fmt"
	"os"

	"smartarrays/internal/adapt"
	"smartarrays/internal/bench"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/obs/serve"
)

func main() {
	verbose := flag.Bool("v", false, "print every decision in the grid")
	table2 := flag.Bool("table2", false, "print Table 2 (trade-offs) and exit")
	multi := flag.Bool("multi", false, "demonstrate multi-array joint placement (PageRank array set)")
	live := flag.Bool("live", false, "demonstrate live re-scoring: a drifting workload flips its §6 decision mid-run")
	reencode := flag.Bool("reencode", false, "demonstrate live re-encoding: a drifting access mix migrates an array between codecs mid-run")
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
		fmt.Fprintf(os.Stderr, "saadapt: introspection server on http://%s\n", addr)
	}

	switch {
	case *table2:
		bench.PrintTable2(os.Stdout)
	case *multi:
		runMulti(rec)
	case *live:
		rep := bench.RunLiveAdaptivity(bench.LiveConfig{Recorder: rec, Arrays: reg})
		bench.PrintLiveReport(os.Stdout, rep)
	case *reencode:
		rep := bench.RunLiveReencoding(bench.ReencodeConfig{Recorder: rec, Arrays: reg})
		bench.PrintReencodeReport(os.Stdout, rep)
	default:
		rep := bench.RunAdaptivity(rec)
		bench.PrintAdaptReport(os.Stdout, rep, *verbose)
	}

	exitOn(of.Finish(rec))
}

// runMulti jointly places the PageRank arrays (Twitter scale) on the
// 8-core machine at several memory budgets.
func runMulti(rec *obs.Recorder) {
	spec := machine.X52Small()
	usages := []adapt.ArrayUsage{
		{Name: "ranks", PayloadBytes: 336e6, RandomBytes: 62e9, ScanBytes: 0.34e9, ReadOnly: true},
		{Name: "redge", PayloadBytes: 6e9, ScanBytes: 6e9, ReadOnly: true},
		{Name: "rbegin", PayloadBytes: 336e6, ScanBytes: 0.34e9, ReadOnly: true},
		{Name: "out-degrees", PayloadBytes: 336e6, RandomBytes: 3e9, ReadOnly: true},
		{Name: "next-ranks", PayloadBytes: 336e6, WriteBytes: 0.34e9},
	}
	const instr = 50e9
	fmt.Printf("Multi-array placement for PageRank on %s (one iteration)\n", spec.Name)
	for _, budget := range []uint64{128 << 30, 7 << 30, 4 << 30} {
		ds, res := adapt.DecideMulti(spec, budget, instr, usages, rec)
		fmt.Printf("  memory budget %3d GB/socket -> %.0f ms/iter, bottleneck %s\n",
			budget>>30, res.Seconds*1e3, res.Bottleneck)
		for _, d := range ds {
			fmt.Printf("      %s\n", d)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "saadapt:", err)
		os.Exit(1)
	}
}
