package core

import (
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// maskFixture allocates a packed array with deterministic boundary-heavy
// values, mirroring bitpack's packedFixture.
func maskFixture(t *testing.T, bits uint, n uint64) (*SmartArray, []uint64) {
	t.Helper()
	mem := memsim.New(machine.UMA(2))
	a, err := Allocate(mem, Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Free)
	values := make([]uint64, n)
	state := uint64(bits)*2654435761 + n
	mask := a.Codec().Mask()
	for i := range values {
		switch i % 5 {
		case 0:
			values[i] = mask
		case 1:
			values[i] = 0
		case 2:
			values[i] = uint64(i) & mask
		default:
			state = state*6364136223846793005 + 1442695040888963407
			values[i] = state & mask
		}
		a.Init(0, uint64(i), values[i])
	}
	return a, values
}

// maskRanges are the ragged shapes every helper must handle: chunk
// aligned, mid-chunk head, mid-chunk tail, both, a sub-chunk range, and a
// range ending at the array's ragged final chunk.
func maskRanges(n uint64) [][2]uint64 {
	candidates := [][2]uint64{
		{0, n},
		{0, 128},
		{37, 256},
		{64, 200},
		{70, 90},
		{5, 63},
		{130, n},
		{n - 1, n},
	}
	var out [][2]uint64
	for _, r := range candidates {
		if r[1] > n {
			r[1] = n
		}
		if r[0] < r[1] {
			out = append(out, r)
		}
	}
	return out
}

func TestMaskRangeMatchesReference(t *testing.T) {
	const n = 4*bitpack.ChunkSize + 21 // ragged final chunk
	for _, bits := range []uint{1, 7, 12, 32, 33, 64} {
		a, values := maskFixture(t, bits, n)
		thr := a.Codec().Mask() / 2
		for _, op := range []bitpack.Cmp{bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt, bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe} {
			for _, r := range maskRanges(n) {
				lo, hi := r[0], r[1]
				first, num := MaskChunks(lo, hi)
				masks := make([]uint64, num)
				live := MaskRange(a, 0, lo, hi, op, thr, masks)
				var want bool
				for i := lo; i < hi; i++ {
					ch := i/bitpack.ChunkSize - first
					bit := masks[ch] >> (i % bitpack.ChunkSize) & 1
					expect := op.Eval(values[i], thr)
					if expect {
						want = true
					}
					if (bit == 1) != expect {
						t.Fatalf("bits=%d op=%s [%d,%d): row %d selected=%v, want %v",
							bits, op, lo, hi, i, bit == 1, expect)
					}
				}
				// Bits outside the range must be clear.
				if pc := bitpack.PopcountMasks(masks); pc != countRef(values[lo:hi], op, thr) {
					t.Fatalf("bits=%d op=%s [%d,%d): popcount %d includes out-of-range bits", bits, op, lo, hi, pc)
				}
				if live != want {
					t.Fatalf("bits=%d op=%s [%d,%d): live=%v, want %v", bits, op, lo, hi, live, want)
				}
			}
		}
	}
}

func countRef(vals []uint64, op bitpack.Cmp, thr uint64) uint64 {
	var n uint64
	for _, v := range vals {
		if op.Eval(v, thr) {
			n++
		}
	}
	return n
}

func TestMaskRangeAndConjunction(t *testing.T) {
	const n = 3*bitpack.ChunkSize + 11
	a, values := maskFixture(t, 16, n)
	thrLo := a.Codec().Mask() / 4
	thrHi := 3 * (a.Codec().Mask() / 4)
	for _, r := range maskRanges(n) {
		lo, hi := r[0], r[1]
		first, num := MaskChunks(lo, hi)
		masks := make([]uint64, num)
		live := MaskRange(a, 0, lo, hi, bitpack.CmpGe, thrLo, masks)
		if live {
			live = MaskRangeAnd(a, 0, lo, hi, bitpack.CmpLe, thrHi, masks)
		}
		var wantLive bool
		var wantSum uint64
		for i := lo; i < hi; i++ {
			expect := values[i] >= thrLo && values[i] <= thrHi
			if expect {
				wantLive = true
				wantSum += values[i]
			}
			bit := masks[i/bitpack.ChunkSize-first] >> (i % bitpack.ChunkSize) & 1
			if (bit == 1) != expect {
				t.Fatalf("[%d,%d): row %d selected=%v, want %v", lo, hi, i, bit == 1, expect)
			}
		}
		if live != wantLive {
			t.Fatalf("[%d,%d): live=%v, want %v", lo, hi, live, wantLive)
		}
		if got := ReduceRangeMasked(a, 0, lo, hi, ReduceSum, masks); got != wantSum {
			t.Fatalf("[%d,%d): two-predicate masked sum = %d, want %d", lo, hi, got, wantSum)
		}
	}
}

// TestMaskRangeAndShortCircuit: an impossible first predicate must kill
// every chunk, and the AND pass must report dead without reviving bits.
func TestMaskRangeAndShortCircuit(t *testing.T) {
	const n = 2 * bitpack.ChunkSize
	a, _ := maskFixture(t, 8, n)
	_, num := MaskChunks(0, n)
	masks := make([]uint64, num)
	if MaskRange(a, 0, 0, n, bitpack.CmpGt, ^uint64(0), masks) {
		t.Fatal("impossible predicate reported live")
	}
	if MaskRangeAnd(a, 0, 0, n, bitpack.CmpGe, 0, masks) {
		t.Fatal("AND over dead masks reported live")
	}
	if !bitpack.AllZeroMasks(masks) {
		t.Fatal("AND revived dead chunks")
	}
}

func TestReduceRangeMaskedMatchesReference(t *testing.T) {
	const n = 4*bitpack.ChunkSize + 9
	for _, bits := range []uint{3, 11, 32, 40, 64} {
		a, values := maskFixture(t, bits, n)
		thr := a.Codec().Mask() / 2
		for _, r := range maskRanges(n) {
			lo, hi := r[0], r[1]
			_, num := MaskChunks(lo, hi)
			masks := make([]uint64, num)
			MaskRange(a, 0, lo, hi, bitpack.CmpLe, thr, masks)
			var wantSum, wantMax uint64
			wantMin := ^uint64(0)
			for i := lo; i < hi; i++ {
				if values[i] > thr {
					continue
				}
				wantSum += values[i]
				if values[i] > wantMax {
					wantMax = values[i]
				}
				if values[i] < wantMin {
					wantMin = values[i]
				}
			}
			if got := ReduceRangeMasked(a, 0, lo, hi, ReduceSum, masks); got != wantSum {
				t.Fatalf("bits=%d [%d,%d): masked sum = %d, want %d", bits, lo, hi, got, wantSum)
			}
			if got := ReduceRangeMasked(a, 0, lo, hi, ReduceMax, masks); got != wantMax {
				t.Fatalf("bits=%d [%d,%d): masked max = %d, want %d", bits, lo, hi, got, wantMax)
			}
			if got := ReduceRangeMasked(a, 0, lo, hi, ReduceMin, masks); got != wantMin {
				t.Fatalf("bits=%d [%d,%d): masked min = %d, want %d", bits, lo, hi, got, wantMin)
			}
		}
	}
}

func TestReduceRangeMaskedEmptyRange(t *testing.T) {
	a, _ := maskFixture(t, 9, bitpack.ChunkSize)
	if got := ReduceRangeMasked(a, 0, 5, 5, ReduceSum, nil); got != 0 {
		t.Errorf("empty masked sum = %d", got)
	}
	if got := ReduceRangeMasked(a, 0, 5, 5, ReduceMin, nil); got != ^uint64(0) {
		t.Errorf("empty masked min = %d", got)
	}
}

// TestMaskChunks pins the covering-chunk arithmetic.
func TestMaskChunks(t *testing.T) {
	cases := []struct{ lo, hi, first, num uint64 }{
		{0, 64, 0, 1},
		{0, 65, 0, 2},
		{63, 65, 0, 2},
		{64, 128, 1, 1},
		{70, 90, 1, 1},
		{5, 5, 0, 0},
		{127, 129, 1, 2},
	}
	for _, c := range cases {
		first, num := MaskChunks(c.lo, c.hi)
		if first != c.first || num != c.num {
			t.Errorf("MaskChunks(%d,%d) = (%d,%d), want (%d,%d)", c.lo, c.hi, first, num, c.first, c.num)
		}
	}
}
