package bench

import (
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// BenchmarkTelemetry measures the recorder/registry overhead on the fused
// reduce hot path — the quantity EXPERIMENTS.md's observability-overhead
// table reports. Three configurations:
//
//	off       nil recorder, no registry — the zero-cost claim
//	recorder  ring events + loop histogram, no per-array profiling
//	full      recorder plus per-array accounting folded at the barrier
//
// Run with: go test ./internal/bench/ -bench Telemetry -benchtime 2s
func BenchmarkTelemetry(b *testing.B) {
	const n = 1 << 20
	const bits = 10
	run := func(b *testing.B, rec *obs.Recorder, reg *obs.ArrayRegistry) {
		spec := machine.X52Large()
		rt := rts.New(spec)
		rt.SetRecorder(rec)
		rt.SetArrayProfiling(reg)
		a, err := core.Allocate(rt.Memory(), core.Config{
			Name: "overhead", Length: n, Bits: bits, Placement: memsim.Interleaved,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer a.Free()
		mask := uint64(1)<<bits - 1
		rt.ParallelFor(0, n, 0, func(w *rts.Worker, lo, hi uint64) {
			for i := lo; i < hi; i++ {
				a.Init(w.Socket, i, i&mask)
			}
		})
		want := uint64(0)
		for i := uint64(0); i < n; i++ {
			want += i & mask
		}
		b.SetBytes(n * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := rt.ReduceSum(0, n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
				s := core.ReduceRange(a, w.Socket, lo, hi, core.ReduceSum)
				a.AccountReduce(w.Counters, lo, hi)
				return s
			})
			if got != want {
				b.Fatalf("sum = %d, want %d", got, want)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, nil) })
	b.Run("recorder", func(b *testing.B) { run(b, obs.NewRecorder(0), nil) })
	b.Run("full", func(b *testing.B) { run(b, obs.NewRecorder(0), obs.NewArrayRegistry()) })
}
