package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"smartarrays/internal/machine"
)

// PrintAggTable writes aggregation rows (Figures 2/10) as an aligned
// table: one row per cell with the three modeled panels.
func PrintAggTable(w io.Writer, title string, rows []AggResult) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tlang\tplacement\tbits\ttime(ms)\tmem-bw(GB/s)\tinstr(x1e9)\tbottleneck\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.0f\t%s\t%.1f\t%s\t%v\n",
			r.Machine.Name, r.Lang, r.PlacementLabel, r.Bits,
			r.TimeMs, fmtGBs(r.BandwidthGBs), r.InstructionsG, r.Bottleneck, r.Verified)
	}
	tw.Flush()
}

// PrintInteropTable writes Figure 3's rows.
func PrintInteropTable(w io.Writer, rows []InteropResult) {
	fmt.Fprintln(w, "Figure 3: single-threaded aggregation across access paths (measured)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "path\tns/elem\tvs C++\tboundary-crossings\tinteroperable\tsmart-functionality")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1fx\t%d\t%v\t%v\n",
			r.Path, r.NsPerElem, r.RelativeToCPP, r.BoundaryCrossings,
			r.Interoperable, r.SmartFunctionality)
	}
	tw.Flush()
}

// PrintGraphTable writes graph experiment rows (Figures 11/12).
func PrintGraphTable(w io.Writer, title string, rows []GraphResult) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tvariant\tplacement\ttime(ms)\tmem-bw(GB/s)\tinstr(x1e9)\tmemory(GB)\tbottleneck\tverified")
	for _, r := range rows {
		mem := "-"
		if r.MemoryBytes > 0 {
			mem = fmt.Sprintf("%.1f", float64(r.MemoryBytes)/machine.GB)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%s\t%.1f\t%s\t%s\t%v\n",
			r.Machine, r.Compression, r.Label,
			r.TimeMs, fmtGBs(r.BandwidthGBs), r.InstructionsG, mem, r.Bottleneck, r.Verified)
	}
	tw.Flush()
}

// PrintAdaptReport writes the §6.3 statistics and, optionally, every
// decision.
func PrintAdaptReport(w io.Writer, rep AdaptReport, verbose bool) {
	fmt.Fprintln(w, "Adaptivity evaluation (paper §6.3)")
	fmt.Fprintf(w, "  cases: %d\n", rep.Cases)
	fmt.Fprintf(w, "  correct configuration chosen: %d (%.0f%%)\n",
		rep.Correct, 100*float64(rep.Correct)/float64(rep.Cases))
	fmt.Fprintf(w, "  step 1 (placement diagrams): %d/%d correct (paper: 62/64)\n",
		rep.Step1Correct, rep.Step1Cases)
	fmt.Fprintf(w, "  step 2 (compression choice): %d/%d correct (paper: 86/96)\n",
		rep.Step2Correct, rep.Step2Cases)
	fmt.Fprintf(w, "  average regret when wrong: %.1f%% (median %.1f%%)\n",
		rep.AvgRegretPct, rep.MedianRegretPct)
	fmt.Fprintf(w, "  vs best static configuration (%s): adaptive is %.1f%% faster overall\n",
		rep.StaticLabel, rep.VsBestStaticPct)
	if !verbose {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "case\tmachine\tbits\tchosen\tchosen(ms)\tbest\tbest(ms)\tok")
	for _, d := range rep.Decisions {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.0f\t%s\t%.0f\t%v\n",
			d.Case, d.Machine, d.Bits, d.Chosen, d.ChosenMs, d.BestLabel, d.BestMs, d.Correct)
	}
	tw.Flush()
}

// PrintLiveReport writes the drifting-workload live-adaptivity summary.
func PrintLiveReport(w io.Writer, rep LiveReport) {
	fmt.Fprintln(w, "Live adaptivity: scan-profiled decision vs drifting workload")
	fmt.Fprintf(w, "  machine %s, %d elements at %d bits\n", rep.Machine, rep.Elements, rep.Bits)
	fmt.Fprintf(w, "  initial decision: %s (%s)\n", rep.Initial, rep.Initial.Reason)
	fmt.Fprintf(w, "  live re-scores: %d, drift events: %d", rep.Checks, rep.Drifts)
	if rep.DriftCheck > 0 {
		fmt.Fprintf(w, " (first flip at check %d)", rep.DriftCheck)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  final decision: %s (%s)\n", rep.Final, rep.Final.Reason)
	fmt.Fprintf(w, "  live profile: random share %.2f, chunk-decode share %.2f, %.1f reads/element, %d folds\n",
		rep.Profile.RandomShare(), rep.Profile.ChunkDecodeShare(),
		rep.Profile.ReadsPerElement(), rep.Profile.Folds)
	if sel, ok := rep.Profile.Selectivity(); ok {
		fmt.Fprintf(w, "  observed predicate selectivity: %.2f\n", sel)
	}
	if rep.MigratedBytes > 0 {
		fmt.Fprintf(w, "  migrated array to %s (%.1f MB moved)\n",
			rep.Profile.Placement, float64(rep.MigratedBytes)/1e6)
	}
	fmt.Fprintf(w, "  verified: %v\n", rep.Verified)
}

// PrintTable1 writes the Table 1 machine characteristics.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: machine characteristics (Oracle X5-2)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\t2x8-core Xeon\t2x18-core Xeon")
	small, large := machine.X52Small(), machine.X52Large()
	row := func(name string, f func(*machine.Spec) string) {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, f(small), f(large))
	}
	row("CPU", func(s *machine.Spec) string { return s.CPU })
	row("Clock rate", func(s *machine.Spec) string { return fmt.Sprintf("%.1f GHz", s.ClockGHz) })
	row("Memory/socket", func(s *machine.Spec) string { return fmt.Sprintf("%d GB", s.MemPerSocketGB) })
	row("Local latency", func(s *machine.Spec) string { return fmt.Sprintf("%.0f ns", s.LocalLatencyNs) })
	row("Remote latency", func(s *machine.Spec) string { return fmt.Sprintf("%.0f ns", s.RemoteLatencyNs) })
	row("Local B/W", func(s *machine.Spec) string { return fmt.Sprintf("%.1f GB/s", s.LocalBWGBs) })
	row("Remote B/W", func(s *machine.Spec) string { return fmt.Sprintf("%.1f GB/s", s.RemoteBWGBs) })
	row("Total local B/W", func(s *machine.Spec) string { return fmt.Sprintf("%.1f GB/s", s.TotalLocalBWGBs()) })
	tw.Flush()
}

// Table2Row is one row of the paper's Table 2 (trade-offs of smart
// functionalities), encoded so tools can print it.
type Table2Row struct {
	Technique     string
	Advantages    []string
	Disadvantages []string
}

// Table2 returns the paper's trade-off matrix.
func Table2() []Table2Row {
	return []Table2Row{
		{
			Technique:     "Bit compression",
			Advantages:    []string{"smaller memory footprint", "less memory bandwidth"},
			Disadvantages: []string{"extra CPU load per access"},
		},
		{
			Technique:     "Replication",
			Advantages:    []string{"less interconnect traffic", "spreads load evenly across all memory channels"},
			Disadvantages: []string{"more memory footprint", "time initializing replicas", "only for read-only data"},
		},
		{
			Technique:     "Interleaved",
			Advantages:    []string{"effective use of bidirectional interconnect", "load approximately equal across banks"},
			Disadvantages: []string{"may leave memory bandwidth unused as threads stall on interconnect transfers"},
		},
		{
			Technique:     "Single socket",
			Advantages:    []string{"local-socket speedup can outweigh the loss elsewhere"},
			Disadvantages: []string{"only pays off when memory bandwidth far exceeds interconnect bandwidth"},
		},
	}
}

// PrintTable2 writes the trade-off matrix.
func PrintTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: trade-offs of smart functionalities")
	for _, r := range Table2() {
		fmt.Fprintf(w, "  %s\n", r.Technique)
		for _, a := range r.Advantages {
			fmt.Fprintf(w, "    + %s\n", a)
		}
		for _, d := range r.Disadvantages {
			fmt.Fprintf(w, "    - %s\n", d)
		}
	}
}

// PrintReencodeReport writes the live re-encoding run summary.
func PrintReencodeReport(w io.Writer, rep ReencodeReport) {
	fmt.Fprintln(w, "Live re-encoding: representation drift under a shifting access mix")
	fmt.Fprintf(w, "  machine %s, %d elements at %d bits\n", rep.Machine, rep.Elements, rep.Bits)
	fmt.Fprintf(w, "  representation path:")
	for i, p := range rep.Path {
		if i > 0 {
			fmt.Fprintf(w, " ->")
		}
		fmt.Fprintf(w, " %s", p)
	}
	fmt.Fprintln(w)
	for _, ev := range rep.Events {
		fmt.Fprintf(w, "  migrated %s -> %s: %s\n", ev.From, ev.To, ev.Reason)
	}
	if rep.GatherFlipLoop > 0 {
		fmt.Fprintf(w, "  random mix flipped the pick at gather loop %d\n", rep.GatherFlipLoop)
	}
	fmt.Fprintf(w, "  migration traffic: %.1f MB\n", float64(rep.TrafficBytes)/1e6)
	fmt.Fprintf(w, "  live profile: random share %.2f, chunk-decode share %.2f, %.1f reads/element, %d folds\n",
		rep.Profile.RandomShare(), rep.Profile.ChunkDecodeShare(),
		rep.Profile.ReadsPerElement(), rep.Profile.Folds)
	fmt.Fprintf(w, "  verified: %v\n", rep.Verified)
}
