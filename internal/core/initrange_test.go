package core

import (
	"fmt"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/rts"
)

// dirty overwrites every word of every replica with the same pseudo-random
// garbage without first-touching a page, so a comparison after the write
// also proves that nothing outside the written range moved.
func dirty(a *SmartArray, seed uint64) {
	for _, replica := range a.Region().AllReplicas() {
		x := seed
		for w := range replica {
			x = x*6364136223846793005 + 1442695040888963407
			replica[w] = x
		}
	}
}

// TestInitRangeMatchesInit holds InitRange to the per-element Init loop it
// replaces, for every width × lo on and off the chunk grid × lengths
// around the chunk size × every placement: all replicas word-identical,
// the same OSDefault first-touch page map, the zone index dropped, and
// Generation moved (by one revision, not one per element).
func TestInitRangeMatchesInit(t *testing.T) {
	const length = 1500 // three pages at 64 bits
	const writer = 1    // untouched pages read as socket 0
	mem := newMemory()
	for bits := uint(1); bits <= 64; bits++ {
		mask := bitpack.MustNew(bits).Mask()
		for _, p := range placements {
			for _, lo := range []uint64{0, 64, 37, 500} {
				for _, n := range []uint64{0, 1, 63, 64, 65, 5*64 + 17, 900} {
					name := fmt.Sprintf("bits=%d %v lo=%d n=%d", bits, p, lo, n)
					cfg := Config{Length: length, Bits: bits, Placement: p}
					want, err := Allocate(mem, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Allocate(mem, cfg)
					if err != nil {
						t.Fatal(err)
					}
					dirty(want, uint64(bits))
					dirty(got, uint64(bits))
					values := make([]uint64, n)
					for i := range values {
						values[i] = (lo + uint64(i)) * 0x9E3779B97F4A7C15 & mask
					}
					if n > 2 {
						values[1], values[n-1] = mask, mask // all ones next to both ragged ends
					}
					for i, v := range values {
						want.Init(writer, lo+uint64(i), v)
					}
					got.BuildZoneIndex()
					before := got.Generation()
					got.InitRange(writer, lo, values)

					for r, wr := range want.Region().AllReplicas() {
						gr := got.Region().AllReplicas()[r]
						for w := range wr {
							if gr[w] != wr[w] {
								t.Fatalf("%s: replica %d word %d = %#x, Init loop gives %#x", name, r, w, gr[w], wr[w])
							}
						}
					}
					for w := uint64(0); w < got.Region().Words(); w += memsim.PageWords {
						if g, w2 := got.Region().HomeSocket(w, 0), want.Region().HomeSocket(w, 0); g != w2 {
							t.Fatalf("%s: page of word %d homed on socket %d, Init loop homes it on %d", name, w, g, w2)
						}
					}
					switch after := got.Generation(); {
					case n == 0 && (after != before || got.ZoneIndex() == nil):
						t.Fatalf("%s: an empty InitRange is a no-op (generation %d -> %d)", name, before, after)
					case n > 0 && after != before+1:
						t.Fatalf("%s: generation %d -> %d, want one revision per call", name, before, after)
					case n > 0 && got.ZoneIndex() != nil:
						t.Fatalf("%s: zone index survived a write", name)
					}
					want.Free()
					got.Free()
				}
			}
		}
	}
}

func TestInitRangePanics(t *testing.T) {
	mem := newMemory()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	a := mustAlloc(t, mem, Config{Length: 200, Bits: 10})
	mustPanic("past the end", func() { a.InitRange(0, 150, make([]uint64, 51)) })
	mustPanic("lo past the end", func() { a.InitRange(0, 201, nil) })
	mustPanic("lo+len wraps", func() { a.InitRange(0, ^uint64(0), make([]uint64, 2)) })
	for _, pos := range []int{0, 70, 189} { // ragged head, whole chunk, ragged tail
		values := make([]uint64, 190)
		values[pos] = 1 << 10
		mustPanic(fmt.Sprintf("overflow at %d", pos), func() { a.InitRange(0, 5, values) })
	}
	a.InitRange(0, 0, make([]uint64, 200))
	if _, err := a.Reencode(encoding.RLE, 0); err != nil {
		t.Fatal(err)
	}
	mustPanic("re-encoded array", func() { a.InitRange(0, 0, make([]uint64, 64)) })
}

// TestParallelInitRangeWordAlignedBatches is TestParallelInitWordAlignedBatches
// through InitRange: word-aligned but not chunk-aligned batches (one packed
// word each at 16 bits, so every batch is a ragged head), then chunk-sized
// and larger ones that take the Pack path. Run under -race it is the
// disjoint-writer contract: a batch writes no word outside its range.
func TestParallelInitRangeWordAlignedBatches(t *testing.T) {
	rt := rts.New(machine.UMA(4))
	const n = 1 << 12
	const bits = 16
	for _, grain := range []int64{4, 64, 200} {
		a, err := Allocate(rt.Memory(), Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
		if err != nil {
			t.Fatal(err)
		}
		mask := a.Codec().Mask()
		before := a.Generation()
		rt.ParallelFor(0, n, grain, func(w *rts.Worker, lo, hi uint64) {
			values := make([]uint64, hi-lo)
			for i := range values {
				values[i] = (lo + uint64(i)) * 31 & mask
			}
			a.InitRange(w.Socket, lo, values)
		})
		rep := a.GetReplica(0)
		for i := uint64(0); i < n; i++ {
			if got := a.Get(rep, i); got != i*31&mask {
				t.Fatalf("grain %d: element %d = %d, want %d", grain, i, got, i*31&mask)
			}
		}
		if batches := (uint64(n) + uint64(grain) - 1) / uint64(grain); a.Generation() != before+batches {
			t.Errorf("grain %d: generation moved by %d over %d calls", grain, a.Generation()-before, batches)
		}
		a.Free()
	}
}

func BenchmarkInitRange4(b *testing.B)  { benchInitRange(b, 4) }
func BenchmarkInitRange16(b *testing.B) { benchInitRange(b, 16) }
func BenchmarkInitRange33(b *testing.B) { benchInitRange(b, 33) }
func BenchmarkInitRange64(b *testing.B) { benchInitRange(b, 64) }

// benchInitRange reports ns/elem for one InitRange over the array next to
// the per-element Init loop over the same values.
func benchInitRange(b *testing.B, bits uint) {
	const n = 1 << 16
	a, err := Allocate(newMemory(), Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Free()
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i) & a.Codec().Mask()
	}
	b.Run("range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.InitRange(0, 0, values)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
	})
	b.Run("init", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range values {
				a.Init(0, uint64(j), v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
	})
}
