package core

import (
	"fmt"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// zoneTestArray allocates and fills a 12-bit array with a mix of sorted
// plateaus and noise so every verdict kind occurs.
func zoneTestArray(t *testing.T, n uint64) (*SmartArray, []uint64) {
	t.Helper()
	mem := memsim.New(machine.X52Large())
	a, err := Allocate(mem, Config{Length: n, Bits: 12, Placement: memsim.Interleaved})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		v := i / 16 % 1024
		if i%97 == 0 {
			x := i*2654435761 + 12345
			v = (x ^ x>>13) % 4096
		}
		values[i] = v
		a.Init(0, i, v)
	}
	return a, values
}

// TestZonePrunedPathsMatch checks that every pruned read path returns
// bit-identical results to the unpruned one, for every codec, operator,
// and a set of ragged ranges.
func TestZonePrunedPathsMatch(t *testing.T) {
	const n = 4517 // ragged tail chunk, multiple super zones of chunks
	ops := []bitpack.Cmp{bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt, bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe}
	ranges := [][2]uint64{{0, n}, {0, 64}, {7, 131}, {100, 101}, {4096, n}, {63, 4481}}
	thresholds := []uint64{0, 100, 511, 1024, 4095}

	for _, kind := range append([]encoding.Kind{encoding.BitPacked}, encoding.Kinds...) {
		a, values := zoneTestArray(t, n)
		if _, err := a.Reencode(kind, 0); err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		// Reference results from the unpruned paths, before any index.
		type key struct {
			op  bitpack.Cmp
			thr uint64
			r   int
		}
		masksRef := map[key][]uint64{}
		for _, op := range ops {
			for _, thr := range thresholds {
				for ri, r := range ranges {
					_, nc := MaskChunks(r[0], r[1])
					m := make([]uint64, nc)
					MaskRange(a, 0, r[0], r[1], op, thr, m)
					masksRef[key{op, thr, ri}] = m
				}
			}
		}

		if a.ZoneIndex() != nil {
			t.Fatalf("%v: unexpected zone index before build", kind)
		}
		if z := a.BuildZoneIndex(); z == nil || a.ZoneIndex() != z {
			t.Fatalf("%v: BuildZoneIndex did not attach", kind)
		}

		for _, op := range ops {
			for _, thr := range thresholds {
				for ri, r := range ranges {
					want := masksRef[key{op, thr, ri}]
					_, nc := MaskChunks(r[0], r[1])
					got := make([]uint64, nc)
					MaskRange(a, 0, r[0], r[1], op, thr, got)
					for c := range want {
						if got[c] != want[c] {
							t.Fatalf("%v op %v thr %d range %v chunk %d: mask %#x, want %#x",
								kind, op, thr, r, c, got[c], want[c])
						}
					}
					// MaskRangeAnd over a copy of the reference must equal
					// want AND want == want.
					and := append([]uint64(nil), want...)
					MaskRangeAnd(a, 0, r[0], r[1], op, thr, and)
					for c := range want {
						if and[c] != want[c] {
							t.Fatalf("%v op %v thr %d range %v chunk %d: and-mask %#x, want %#x",
								kind, op, thr, r, c, and[c], want[c])
						}
					}
					// Masked folds over the reference mask.
					for _, rop := range []ReduceOp{ReduceSum, ReduceMin, ReduceMax} {
						zoneGot := ReduceRangeMasked(a, 0, r[0], r[1], rop, got)
						// Strip the index to compare against the plain path.
						a.rep.Load().zones.Store(nil)
						plain := ReduceRangeMasked(a, 0, r[0], r[1], rop, want)
						a.rep.Load().zones.Store(a.BuildZoneIndex())
						if zoneGot != plain {
							t.Fatalf("%v op %v thr %d range %v %v: masked fold %d, want %d",
								kind, op, thr, r, rop, zoneGot, plain)
						}
					}
					// A count is the masks' popcount, with the index (got)
					// and without it (want).
					var count uint64
					for _, v := range values[r[0]:r[1]] {
						if op.Eval(v, thr) {
							count++
						}
					}
					if zc, pc := bitpack.PopcountMasks(got), bitpack.PopcountMasks(want); zc != count || pc != count {
						t.Fatalf("%v op %v thr %d range %v: count %d (unpruned %d), want %d", kind, op, thr, r, zc, pc, count)
					}
				}
			}
		}
		// Unmasked reductions.
		for _, r := range ranges {
			for _, rop := range []ReduceOp{ReduceSum, ReduceMin, ReduceMax} {
				zv := ReduceRange(a, 0, r[0], r[1], rop)
				a.rep.Load().zones.Store(nil)
				pv := ReduceRange(a, 0, r[0], r[1], rop)
				a.BuildZoneIndex()
				if zv != pv {
					t.Fatalf("%v range %v %v: reduce %d, want %d", kind, r, rop, zv, pv)
				}
			}
		}
		a.Free()
	}
}

// TestZoneIndexLifecycle pins the invalidation contract: Init drops the
// index and bumps the generation, Reencode rebuilds it on the new
// snapshot, Migrate keeps it.
func TestZoneIndexLifecycle(t *testing.T) {
	a, _ := zoneTestArray(t, 1000)
	defer a.Free()

	g0 := a.Generation()
	if a.BuildZoneIndex() == nil {
		t.Fatal("BuildZoneIndex returned nil")
	}
	if a.Generation() != g0 {
		t.Fatalf("BuildZoneIndex changed generation %d -> %d", g0, a.Generation())
	}

	a.Init(0, 5, 99)
	if a.ZoneIndex() != nil {
		t.Fatal("Init did not drop the zone index")
	}
	if a.Generation() <= g0 {
		t.Fatalf("Init did not bump generation (still %d)", a.Generation())
	}

	z := a.BuildZoneIndex()
	gInit := a.Generation()
	if _, err := a.Reencode(encoding.RLE, 0); err != nil {
		t.Fatal(err)
	}
	z2 := a.ZoneIndex()
	if z2 == nil {
		t.Fatal("Reencode did not rebuild the zone index")
	}
	if z2 == z {
		t.Fatal("Reencode kept the stale zone index")
	}
	if a.Generation() <= gInit {
		t.Fatal("Reencode did not bump generation")
	}
	mn, mx := z2.SuperBounds(0) // 1000 elements: one super zone
	wantMn, wantMx := ReduceRange(a, 0, 0, 1000, ReduceMin), ReduceRange(a, 0, 0, 1000, ReduceMax)
	if mn != wantMn || mx != wantMx {
		t.Fatalf("zone root bounds = (%d,%d), want (%d,%d)", mn, mx, wantMn, wantMx)
	}

	gRe := a.Generation()
	if _, err := a.Migrate(memsim.SingleSocket, 0); err != nil {
		t.Fatal(err)
	}
	if a.ZoneIndex() == nil {
		t.Fatal("Migrate dropped the zone index (placement does not change values)")
	}
	if a.Generation() != gRe {
		t.Fatal("Migrate changed the generation")
	}
}

// TestZoneReencodeWithoutIndex pins that arrays that never built an index
// stay index-free across Reencode (no surprise build cost).
func TestZoneReencodeWithoutIndex(t *testing.T) {
	a, _ := zoneTestArray(t, 256)
	defer a.Free()
	if _, err := a.Reencode(encoding.Delta, 0); err != nil {
		t.Fatal(err)
	}
	if a.ZoneIndex() != nil {
		t.Fatal("Reencode built a zone index the array never asked for")
	}
}

// TestZoneMaskFillSuperWindow pins the in-kernel super-zone shortcut to
// the callers that can reach it: a window of at least ZoneFanout aligned
// chunks takes it, a table scan's 32-chunk batch never does, and the two
// produce the same masks and the same scanned/pruned counts.
func TestZoneMaskFillSuperWindow(t *testing.T) {
	const superRows = encoding.ZoneFanout * bitpack.ChunkSize
	const batchRows = superRows / 2 // a table-scan batch: 32 chunks
	for _, w := range []struct {
		chunk, remaining uint64
		want             bool
	}{
		{0, encoding.ZoneFanout, true},
		{encoding.ZoneFanout, 3 * encoding.ZoneFanout, true},
		{0, encoding.ZoneFanout / 2, false},                   // batch at a super's start
		{encoding.ZoneFanout / 2, encoding.ZoneFanout, false}, // long but unaligned
		{encoding.ZoneFanout, encoding.ZoneFanout - 1, false},
	} {
		if got := superWindow(w.chunk, w.remaining); got != w.want {
			t.Errorf("superWindow(%d, %d) = %v, want %v", w.chunk, w.remaining, got, w.want)
		}
	}

	// A sorted ramp over three super zones plus a ragged tail: per
	// threshold the supers are all-match, mixed and no-match.
	const n = 3*superRows + 100
	mem := memsim.New(machine.X52Large())
	a, err := Allocate(mem, Config{Length: n, Bits: 14, Placement: memsim.Interleaved})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free()
	for i := uint64(0); i < n; i++ {
		a.Init(0, i, i)
	}
	a.BuildZoneIndex()
	ops := []bitpack.Cmp{bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt, bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe}
	for _, op := range ops {
		for _, thr := range []uint64{0, superRows - 1, superRows, superRows + 70, 2 * superRows, n - 1, n + 5} {
			_, nc := MaskChunks(0, n)
			whole := make([]uint64, nc)
			var wholeCounts ScanCounts
			v := a.View(0)
			v.Mask(0, n, op, thr, whole, false, &wholeCounts)

			batched := make([]uint64, nc)
			var batchedCounts ScanCounts
			for lo := uint64(0); lo < n; lo += batchRows {
				hi := min(lo+batchRows, n)
				v.Mask(lo, hi, op, thr, batched[lo/bitpack.ChunkSize:], false, &batchedCounts)
			}
			for c := range whole {
				if whole[c] != batched[c] {
					t.Fatalf("op %v thr %d chunk %d: whole-column mask %#x, batched %#x", op, thr, c, whole[c], batched[c])
				}
			}
			if wholeCounts != batchedCounts || wholeCounts.Scanned+wholeCounts.Pruned != nc {
				t.Fatalf("op %v thr %d: whole-column counts %+v, batched %+v, chunks %d", op, thr, wholeCounts, batchedCounts, nc)
			}
		}
	}
}

// TestMaskRangeAlternatingZoneVerdicts drives the per-run dispatch: a
// column whose chunks alternate between constant (the index decides them:
// every row matches, or none) and mixed (the kernel must evaluate them),
// in runs of one, two and three chunks, natively packed and re-encoded.
// View.Mask, filling and ANDing, with the index attached must produce the
// masks MaskRange and MaskRangeAnd give the same array without one, and
// account exactly the undecided live chunks as scanned.
func TestMaskRangeAlternatingZoneVerdicts(t *testing.T) {
	const chunks = 37
	const n = chunks*bitpack.ChunkSize - 11 // ragged tail
	values := make([]uint64, n)
	mixed := make([]bool, chunks) // chunk holds values on both sides of every threshold
	state := uint64(99)
	for c, run := 0, 0; c < chunks; run++ {
		for k := 0; k <= run%3 && c < chunks; k, c = k+1, c+1 {
			mixed[c] = run%2 == 1
			for i := c * bitpack.ChunkSize; i < min((c+1)*bitpack.ChunkSize, n); i++ {
				if mixed[c] {
					state = state*6364136223846793005 + 1442695040888963407
					values[i] = state >> 54 // 0..1023
				} else {
					values[i] = uint64(run%4) * 300 // constant chunk: 0, 300, 600, 900
				}
			}
		}
	}
	mem := memsim.New(machine.X52Large())
	for _, kind := range []encoding.Kind{encoding.BitPacked, encoding.FoR} {
		indexed, err := Allocate(mem, Config{Length: n, Bits: 10, Placement: memsim.Interleaved})
		if err != nil {
			t.Fatal(err)
		}
		defer indexed.Free()
		plain, err := Allocate(mem, Config{Length: n, Bits: 10, Placement: memsim.Interleaved})
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Free()
		for _, a := range []*SmartArray{indexed, plain} {
			a.InitRange(0, 0, values)
			if kind != encoding.BitPacked {
				if _, err := a.Reencode(kind, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		z := indexed.BuildZoneIndex()
		plain.rep.Load().zones.Store(nil)
		for _, op := range []bitpack.Cmp{bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt, bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe} {
			for _, thr := range []uint64{300, 450, 600} {
				for _, r := range [][2]uint64{{0, n}, {70, n - 70}, {3 * bitpack.ChunkSize, 9 * bitpack.ChunkSize}} {
					lo, hi := r[0], r[1]
					first, nc := MaskChunks(lo, hi)
					got, want := make([]uint64, nc), make([]uint64, nc)
					var counts ScanCounts
					v := indexed.View(0)
					v.Mask(lo, hi, op, thr, got, false, &counts)
					MaskRange(plain, 0, lo, hi, op, thr, want)
					var undecided uint64
					for c := uint64(0); c < nc; c++ {
						if got[c] != want[c] {
							t.Fatalf("%v op %v thr %d [%d,%d) chunk %d: mask %#x with the index, %#x without", kind, op, thr, lo, hi, first+c, got[c], want[c])
						}
						if z.Verdict(first+c, op, thr) == encoding.ZoneMixed {
							undecided++
						}
					}
					if counts.Scanned != undecided || counts.Scanned+counts.Pruned != nc {
						t.Fatalf("%v op %v thr %d [%d,%d): counts %+v, want %d scanned of %d", kind, op, thr, lo, hi, counts, undecided, nc)
					}

					// The conjunction with a prior selection that has dead,
					// full and irregular words.
					prior := make([]uint64, nc)
					MaskRange(plain, 0, lo, hi, bitpack.CmpGe, 0, prior) // every row of [lo, hi)
					for c := range prior {
						prior[c] &= [...]uint64{^uint64(0), 0, 0x0F0F0F0F0F0F0F0F, want[c]}[c%4]
					}
					gotAnd := append([]uint64(nil), prior...)
					wantAnd := append([]uint64(nil), prior...)
					counts = ScanCounts{}
					liveGot := v.Mask(lo, hi, op, thr, gotAnd, true, &counts)
					liveWant := MaskRangeAnd(plain, 0, lo, hi, op, thr, wantAnd)
					undecided = 0
					for c := uint64(0); c < nc; c++ {
						if gotAnd[c] != wantAnd[c] {
							t.Fatalf("%v op %v thr %d [%d,%d) chunk %d: And mask %#x with the index, %#x without", kind, op, thr, lo, hi, first+c, gotAnd[c], wantAnd[c])
						}
						if prior[c] != 0 && z.Verdict(first+c, op, thr) == encoding.ZoneMixed {
							undecided++
						}
					}
					if liveGot != liveWant || counts.Scanned != undecided || counts.Scanned+counts.Pruned != nc {
						t.Fatalf("%v op %v thr %d [%d,%d): And live %v/%v counts %+v, want %d scanned of %d", kind, op, thr, lo, hi, liveGot, liveWant, counts, undecided, nc)
					}
				}
			}
		}
	}
}

// BenchmarkPrunedScan is the zone-map table EXPERIMENTS.md reports: one
// predicate's whole selective scan (a whole-column mask build, the path
// that reaches the super-zone shortcut, plus the masked sum) with and
// without the index, at 1/5/20 % selectivity over 4 Mi 16-bit values,
// sorted (a ramp: the index resolves almost every chunk) and uniform
// (per-element hashes: it resolves almost none), in ns/elem.
//
//	go test ./internal/core -run '^$' -bench PrunedScan
func BenchmarkPrunedScan(b *testing.B) {
	const n = 1 << 22
	const mask = 1<<16 - 1
	for _, d := range []struct {
		name  string
		value func(i uint64) uint64
	}{
		{"sorted", func(i uint64) uint64 { return i * (mask + 1) / n }},
		{"uniform", func(i uint64) uint64 {
			h := i*6364136223846793005 + 1442695040888963407
			return (h ^ h>>31) & mask
		}},
	} {
		a, err := Allocate(memsim.New(machine.X52Large()), Config{Length: n, Bits: 16, Placement: memsim.Interleaved})
		if err != nil {
			b.Fatal(err)
		}
		values := make([]uint64, n)
		for i := range values {
			values[i] = d.value(uint64(i))
		}
		a.InitRange(0, 0, values)
		z := a.BuildZoneIndex()
		masks := make([]uint64, n/bitpack.ChunkSize)
		for _, pct := range []uint64{1, 5, 20} {
			thr := (mask+1)*pct/100 - 1
			var want uint64
			for _, v := range values {
				if v <= thr {
					want += v
				}
			}
			for _, run := range []struct {
				name  string
				index *encoding.ZoneIndex
			}{{"unpruned", nil}, {"pruned", z}} {
				b.Run(fmt.Sprintf("%s/sel%02d/%s", d.name, pct, run.name), func(b *testing.B) {
					a.rep.Load().zones.Store(run.index)
					for i := 0; i < b.N; i++ {
						MaskRange(a, 0, 0, n, bitpack.CmpLe, thr, masks)
						if got := ReduceRangeMasked(a, 0, 0, n, ReduceSum, masks); got != want {
							b.Fatalf("sum = %d, want %d", got, want)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
				})
			}
		}
		a.Free()
	}
}
