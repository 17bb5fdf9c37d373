package core

import (
	"testing"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/rts"
)

// TestParallelInitWordAlignedBatches initializes a compressed array in
// parallel with batches that are word-aligned but NOT chunk-aligned: at 16
// bits, a grain of 4 elements is exactly one packed word per batch. Element
// ranges that do not share packed words must be safe to initialize
// concurrently; before the Set boundary fix, a batch whose last element
// ended exactly on a word boundary also read-modify-wrote the first word of
// the next batch, which -race reports and which could resurrect stale bits.
func TestParallelInitWordAlignedBatches(t *testing.T) {
	rt := rts.New(machine.UMA(4))
	const n = 1 << 12
	const bits = 16
	a, err := Allocate(rt.Memory(), Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free()
	mask := a.Codec().Mask()
	rt.ParallelFor(0, n, 4, func(w *rts.Worker, lo, hi uint64) {
		for i := lo; i < hi; i++ {
			a.Init(w.Socket, i, i&mask)
		}
	})
	rep := a.GetReplica(0)
	for i := uint64(0); i < n; i++ {
		if got := a.Get(rep, i); got != i&mask {
			t.Fatalf("element %d = %d, want %d", i, got, i&mask)
		}
	}
	// The initialized array reduces identically through both paths.
	if got, want := ReduceRange(a, 0, 0, n, ReduceSum), SumRangeIter(a, 0, 0, n); got != want {
		t.Errorf("fused sum %d != iterator sum %d", got, want)
	}
}
