package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"smartarrays/internal/analytics"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// Ablations exercise the calibrated design choices DESIGN.md §5 commits
// to, showing what each one buys:
//
//   - the remote-stall factor (Table 2's "threads stall on interconnect
//     transfers") is what separates interleaved from replicated placement
//     on the 18-core machine;
//   - the power-law locality boost controls how gather-bound PageRank is;
//   - the runtime's batch grain trades scheduling overhead against
//     balance (real, measured);
//   - Function 3's chunk unpack versus per-element Function 1 gets (real,
//     measured) justifies the paper's scan-oriented unpack kernel and the
//     §7 bounded-map API;
//   - §7 randomization dissolves a modeled hot spot.

// AblationRow is one line of an ablation table.
type AblationRow struct {
	Param string
	Value string
}

// AblationSection is a titled table.
type AblationSection struct {
	Title string
	Rows  []AblationRow
}

// RunAblationStall sweeps the remote-stall factor and reports the modeled
// interleaved and replicated aggregation times on the 18-core machine.
// With factor 1.0 the two placements collapse; the calibrated 1.25
// restores the paper's gap.
func RunAblationStall() AblationSection {
	sec := AblationSection{Title: "remote-stall factor (18-core, 64-bit aggregation)"}
	for _, factor := range []float64{1.0, 1.25, 1.5} {
		spec := machine.X52Large()
		spec.RemoteStallFactor = factor
		inter := perfmodel.Solve(spec, AggregationWorkload(AggConfig{
			Machine: spec, Bits: 64, Placement: memsim.Interleaved}, PaperAggElements))
		repl := perfmodel.Solve(spec, AggregationWorkload(AggConfig{
			Machine: spec, Bits: 64, Placement: memsim.Replicated}, PaperAggElements))
		sec.Rows = append(sec.Rows, AblationRow{
			Param: fmt.Sprintf("stall=%.2f", factor),
			Value: fmt.Sprintf("interleaved %.0f ms vs replicated %.0f ms (gap %.0f%%)",
				inter.Seconds*1e3, repl.Seconds*1e3, 100*(inter.Seconds/repl.Seconds-1)),
		})
	}
	return sec
}

// RunAblationLocalityBoost sweeps the power-law locality boost and
// reports the modeled 8-core replicated PageRank time — the knob's whole
// effect on the Figure 1/12 numbers.
func RunAblationLocalityBoost() AblationSection {
	sec := AblationSection{Title: "power-law locality boost (8-core, replicated PageRank)"}
	spec := machine.X52Small()
	for _, boost := range []float64{1, 3, 6, 12} {
		shape := analytics.ShapeParams{
			V: PaperTwitterVertices, E: PaperTwitterEdges,
			Layout: graph.Layout{Placement: memsim.Replicated},
			Iters:  PaperPageRankIters,
		}
		w := pageRankWorkloadWithBoost(spec, shape, boost)
		res := perfmodel.Solve(spec, w)
		sec.Rows = append(sec.Rows, AblationRow{
			Param: fmt.Sprintf("boost=%g", boost),
			Value: fmt.Sprintf("%.1f s (%.1f GB/s)", res.Seconds, res.MemBandwidthGBs),
		})
	}
	return sec
}

// pageRankWorkloadWithBoost rebuilds the PageRank workload with an
// explicit locality boost (the production path hard-codes the calibrated
// constant).
func pageRankWorkloadWithBoost(spec *machine.Spec, p analytics.ShapeParams, boost float64) perfmodel.Workload {
	w := analytics.PageRankWorkloadFor(spec, p)
	// Stream 2 is the rank gather (see PageRankWorkloadFor); recompute it.
	arrayBytes := float64(p.V * 8)
	eff := perfmodel.RandomReadBytes(arrayBytes, 8, spec.LLCMB*1e6, boost)
	w.Streams[2].Bytes = float64(p.Iters) * float64(p.E) * eff
	return w
}

// RunAblationGrain measures (real wall clock) the runtime's ParallelFor
// at different batch grains over fixed work.
func RunAblationGrain() AblationSection {
	sec := AblationSection{Title: "rts batch grain (measured, fixed 4M-element sum)"}
	rt := rts.New(machine.X52Small())
	const n = 1 << 22
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i)
	}
	for _, grain := range []int64{64, 512, rts.DefaultGrain, 16384, n} {
		start := time.Now()
		sum := rt.ReduceSum(0, n, grain, func(w *rts.Worker, lo, hi uint64) uint64 {
			var s uint64
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			return s
		})
		elapsed := time.Since(start)
		_ = sum
		sec.Rows = append(sec.Rows, AblationRow{
			Param: fmt.Sprintf("grain=%d", grain),
			Value: fmt.Sprintf("%.2f ms", float64(elapsed.Microseconds())/1e3),
		})
	}
	return sec
}

// RunAblationUnpack measures (real wall clock) three ways of scanning a
// 33-bit compressed array: per-element Function 1 gets, the chunked
// iterator (Function 3), and the §7 bounded map.
func RunAblationUnpack() AblationSection {
	sec := AblationSection{Title: "compressed scan strategy (measured, 33-bit, 1M elements)"}
	mem := memsim.New(machine.UMA(4))
	const n = 1 << 20
	a, err := core.Allocate(mem, core.Config{Length: n, Bits: 33})
	if err != nil {
		panic(err)
	}
	defer a.Free()
	fillRange(a, 0, 0, n, func(i uint64) uint64 { return i })
	replica := a.GetReplica(0)

	measure := func(name string, fn func() uint64) {
		start := time.Now()
		sum := fn()
		elapsed := time.Since(start)
		if sum != n*(n-1)/2 {
			panic(fmt.Sprintf("ablation: %s wrong sum %d", name, sum))
		}
		sec.Rows = append(sec.Rows, AblationRow{
			Param: name,
			Value: fmt.Sprintf("%.2f ns/elem", float64(elapsed.Nanoseconds())/n),
		})
	}
	measure("per-element get (Function 1)", func() uint64 {
		var s uint64
		for i := uint64(0); i < n; i++ {
			s += a.Get(replica, i)
		}
		return s
	})
	measure("chunked iterator (Function 3)", func() uint64 {
		return core.SumRangeIter(a, 0, 0, n)
	})
	measure("bounded map (section 7)", func() uint64 {
		var s uint64
		core.Map(a, 0, 0, n, func(_, v uint64) { s += v })
		return s
	})
	measure("fused word-at-a-time (SumChunks)", func() uint64 {
		return core.ReduceRange(a, 0, 0, n, core.ReduceSum)
	})
	return sec
}

// RunAblationRandomization shows the §7 randomization functionality
// dissolving a modeled hot spot: a burst of accesses to one hot page
// region of an interleaved array is served by one socket without
// randomization and by all sockets with it.
func RunAblationRandomization() AblationSection {
	sec := AblationSection{Title: "randomization (section 7): hot 128-element range, interleaved array"}
	mem := memsim.New(machine.X52Small())
	a, err := core.Allocate(mem, core.Config{Length: 16 * memsim.PageWords, Bits: 64, Placement: memsim.Interleaved})
	if err != nil {
		panic(err)
	}
	defer a.Free()
	r := core.NewRandomized(a, 11)
	plain, randomized := r.HotSpotPages(0, 128)
	sec.Rows = append(sec.Rows,
		AblationRow{Param: "plain indexing", Value: fmt.Sprintf("%d socket(s) serve the hot range", plain)},
		AblationRow{Param: "randomized indexing", Value: fmt.Sprintf("%d socket(s) serve the hot range", randomized)},
	)
	// Modeled effect: the hot burst as a single-socket stream vs spread
	// (on the 18-core machine, whose interconnect is fast enough for
	// spreading to pay; on the 8-core machine the QPI link would eat the
	// gain — randomization is itself placement-sensitive).
	spec := machine.X52Large()
	hot := perfmodel.Solve(spec, perfmodel.Workload{Streams: []perfmodel.Stream{
		{Kind: perfmodel.Read, Bytes: 8 * machine.GB, Placement: memsim.SingleSocket, Socket: 0}}})
	spread := perfmodel.Solve(spec, perfmodel.Workload{Streams: []perfmodel.Stream{
		{Kind: perfmodel.Read, Bytes: 8 * machine.GB, Placement: memsim.Interleaved}}})
	sec.Rows = append(sec.Rows, AblationRow{
		Param: "modeled hot-channel burst",
		Value: fmt.Sprintf("one channel %.0f ms vs spread %.0f ms", hot.Seconds*1e3, spread.Seconds*1e3),
	})
	return sec
}

// RunAblations runs every ablation.
func RunAblations() []AblationSection {
	return []AblationSection{
		RunAblationStall(),
		RunAblationLocalityBoost(),
		RunAblationGrain(),
		RunAblationUnpack(),
		RunAblationRandomization(),
		RunAblationAutoNUMA(),
	}
}

// PrintAblations writes the ablation sections.
func PrintAblations(w io.Writer, secs []AblationSection) {
	for _, sec := range secs {
		fmt.Fprintf(w, "%s\n", sec.Title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, r := range sec.Rows {
			fmt.Fprintf(tw, "  %s\t%s\n", r.Param, r.Value)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}
