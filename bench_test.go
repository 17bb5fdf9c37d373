package smartarrays

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its table's rows (real
// scaled execution + paper-scale model) and reports the headline modeled
// quantity as a custom metric, so `go test -bench=.` reproduces the whole
// evaluation. Detailed tables: use the cmd/sabench, cmd/sagraph and
// cmd/saadapt tools.

import (
	"testing"

	"smartarrays/internal/bench"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/rts"
)

func benchOpts() bench.Options {
	return bench.Options{Elements: 1 << 14, GraphVertices: 1000, Verify: true}
}

// BenchmarkTable1Machines re-derives the Table 1 machine models.
func BenchmarkTable1Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range bench.Machines() {
			if err := spec.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure1PageRankReplication: PageRank original vs replicated on
// the 8-core machine (paper: >2x).
func BenchmarkFigure1PageRankReplication(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		orig, repl, err := bench.RunFigure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		speedup = orig.TimeMs / repl.TimeMs
	}
	b.ReportMetric(speedup, "x-speedup")
}

// BenchmarkFigure2Aggregation: the four regimes on the 18-core machine.
func BenchmarkFigure2Aggregation(b *testing.B) {
	var rows []bench.AggResult
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunFigure2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TimeMs, "ms-single")
	b.ReportMetric(rows[3].TimeMs, "ms-repl+comp")
}

// BenchmarkFigure3Interop: single-threaded aggregation across the five
// access paths; reports the JNI slowdown.
func BenchmarkFigure3Interop(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure3(bench.Options{Elements: 1 << 14, Verify: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Path == "Java with JNI" {
				ratio = r.RelativeToCPP
			}
		}
	}
	b.ReportMetric(ratio, "x-jni-vs-cpp")
}

// BenchmarkFigure10Sweep: the 84-cell aggregation sweep.
func BenchmarkFigure10Sweep(b *testing.B) {
	opts := bench.Options{Elements: 1 << 12, GraphVertices: 100, Verify: true}
	var n int
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure10(opts)
		if err != nil {
			b.Fatal(err)
		}
		n = len(rows)
	}
	b.ReportMetric(float64(n), "cells")
}

// BenchmarkFigure11DegreeCentrality: the degree centrality series.
func BenchmarkFigure11DegreeCentrality(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		n = len(rows)
	}
	b.ReportMetric(float64(n), "cells")
}

// BenchmarkFigure12PageRank: the PageRank series; reports the V+E memory
// saving (paper: ~21%).
func BenchmarkFigure12PageRank(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var uMem, veMem uint64
		for _, r := range rows {
			if r.Label == "replicated" && r.Compression == "U" {
				uMem = r.MemoryBytes
			}
			if r.Label == "replicated" && r.Compression == "V+E" {
				veMem = r.MemoryBytes
			}
		}
		saving = 100 * (1 - float64(veMem)/float64(uMem))
	}
	b.ReportMetric(saving, "%-mem-saved")
}

// BenchmarkAdaptivity: the §6.3 grid; reports decision accuracy.
func BenchmarkAdaptivity(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		rep := bench.RunAdaptivity(nil)
		acc = 100 * float64(rep.Correct) / float64(rep.Cases)
	}
	b.ReportMetric(acc, "%-correct")
}

// Micro-benchmarks of the hot kernels on real (host) time.

func scanFixture(b *testing.B, bits uint) *core.SmartArray {
	rt := rts.New(machine.UMA(4))
	const n = 1 << 16
	a, err := core.Allocate(rt.Memory(), core.Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(a.Free)
	mask := a.Codec().Mask()
	for i := uint64(0); i < n; i++ {
		a.Init(0, i, uint64(i)&mask)
	}
	b.SetBytes(n * 8)
	return a
}

func benchScan(b *testing.B, bits uint) {
	a := scanFixture(b, bits)
	n := a.Length()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += core.SumRangeIter(a, 0, 0, n)
	}
	_ = sink
}

func benchFusedSum(b *testing.B, bits uint) {
	a := scanFixture(b, bits)
	n := a.Length()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += core.SumRange(a, 0, 0, n)
	}
	_ = sink
}

// BenchmarkScanU64/U32/Compressed33/Compressed10 measure the chunked
// iterator path (decode into a chunk buffer, then fold).
func BenchmarkScanU64(b *testing.B)          { benchScan(b, 64) }
func BenchmarkScanU32(b *testing.B)          { benchScan(b, 32) }
func BenchmarkScanCompressed33(b *testing.B) { benchScan(b, 33) }
func BenchmarkScanCompressed10(b *testing.B) { benchScan(b, 10) }

// BenchmarkFusedSum* measure the fused word-at-a-time kernels that
// SumRange now routes through (no chunk buffer materialization).
func BenchmarkFusedSumU64(b *testing.B)          { benchFusedSum(b, 64) }
func BenchmarkFusedSumU32(b *testing.B)          { benchFusedSum(b, 32) }
func BenchmarkFusedSumCompressed33(b *testing.B) { benchFusedSum(b, 33) }
func BenchmarkFusedSumCompressed10(b *testing.B) { benchFusedSum(b, 10) }

// BenchmarkParallelSum measures the runtime's dynamic loop distribution.
func BenchmarkParallelSum(b *testing.B) {
	rt := rts.New(machine.X52Small())
	const n = 1 << 18
	a, err := core.Allocate(rt.Memory(), core.Config{Length: n, Bits: 64, Placement: memsim.Replicated})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Free()
	for i := uint64(0); i < n; i++ {
		a.Init(0, i, uint64(i))
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ReduceSum(0, n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			return core.SumRange(a, w.Socket, lo, hi)
		})
	}
}

// BenchmarkPageRankSmall measures the real PageRank execution path.
func BenchmarkPageRankSmall(b *testing.B) {
	sys := NewSystem(SmallMachine())
	g, err := graph.GeneratePowerLaw(2000, 8, 1.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	sg, err := sys.NewSmartGraph(g, GraphLayout{Placement: Replicated})
	if err != nil {
		b.Fatal(err)
	}
	defer sg.Free()
	cfg := PageRankConfig{Damping: 0.85, Tol: 1e-3, MaxIters: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.PageRank(sg, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
