package bitpack

import (
	"math/bits"
	"testing"
)

var allCmps = []Cmp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}

// maskThresholds picks the boundary thresholds for a width: the range
// edges, a mid value, and (when representable) values beyond the width's
// maximum so the constant-mask clamping is exercised.
func maskThresholds(c Codec) []uint64 {
	ts := []uint64{0, 1, c.Mask() / 2, c.Mask()}
	if c.Bits() < 64 {
		ts = append(ts, c.Mask()+1, ^uint64(0))
	} else {
		ts = append(ts, ^uint64(0))
	}
	return ts
}

// TestCmpMaskChunkMatchesReferenceAllWidths sweeps every width 1..64, all
// six operators, and boundary thresholds, comparing CmpMaskChunk bit by
// bit against per-element Get + Eval — word-boundary elements (widths
// dividing 64) and straddling elements (all other widths) included.
func TestCmpMaskChunkMatchesReferenceAllWidths(t *testing.T) {
	const chunks = 3
	for bitsN := uint(1); bitsN <= 64; bitsN++ {
		c, _, data := packedFixture(t, bitsN, chunks*ChunkSize)
		for _, op := range allCmps {
			for _, thr := range maskThresholds(c) {
				for ch := uint64(0); ch < chunks; ch++ {
					got := c.CmpMaskChunk(data, ch, op, thr)
					var want uint64
					for i := 0; i < ChunkSize; i++ {
						if op.Eval(c.Get(data, ch*ChunkSize+uint64(i)), thr) {
							want |= 1 << uint(i)
						}
					}
					if got != want {
						t.Fatalf("bits=%d op=%s thr=%d chunk=%d: mask %#x, want %#x",
							bitsN, op, thr, ch, got, want)
					}
				}
			}
		}
	}
}

// maskPatterns builds the mask shapes the fold triage branches on: empty,
// full, sparse (below the Get cutoff), dense, and irregular.
func maskPatterns(state *uint64) [][]uint64 {
	const chunks = 3
	random := make([]uint64, chunks)
	sparse := make([]uint64, chunks)
	dense := make([]uint64, chunks)
	for i := range random {
		random[i] = lcg(state)
		sparse[i] = 1<<(lcg(state)%64) | 1<<(lcg(state)%64)
		dense[i] = ^(1 << (lcg(state) % 64))
	}
	return [][]uint64{
		make([]uint64, chunks),               // empty
		{^uint64(0), ^uint64(0), ^uint64(0)}, // full
		sparse,                               // bit-iteration path
		dense,                                // dense branch-free path
		random,                               // mixed
		{0, ^uint64(0), 0x8000000000000001},  // per-chunk triage mix
	}
}

// TestMaskedFoldsMatchReferenceAllWidths checks SumChunksMasked,
// MinChunksMasked, and MaxChunksMasked against per-element folds for
// every width and every mask shape.
func TestMaskedFoldsMatchReferenceAllWidths(t *testing.T) {
	const chunks = 3
	for bitsN := uint(1); bitsN <= 64; bitsN++ {
		c, _, data := packedFixture(t, bitsN, chunks*ChunkSize)
		state := uint64(bitsN) * 977
		for pi, masks := range maskPatterns(&state) {
			var wantSum, wantMax uint64
			wantMin := ^uint64(0)
			for i := uint64(0); i < chunks*ChunkSize; i++ {
				if masks[i/ChunkSize]>>(i%ChunkSize)&1 == 0 {
					continue
				}
				v := c.Get(data, i)
				wantSum += v
				if v > wantMax {
					wantMax = v
				}
				if v < wantMin {
					wantMin = v
				}
			}
			if got := c.SumChunksMasked(data, 0, chunks, masks); got != wantSum {
				t.Fatalf("bits=%d pattern=%d: SumChunksMasked = %d, want %d", bitsN, pi, got, wantSum)
			}
			if got := c.MaxChunksMasked(data, 0, chunks, masks); got != wantMax {
				t.Fatalf("bits=%d pattern=%d: MaxChunksMasked = %d, want %d", bitsN, pi, got, wantMax)
			}
			if got := c.MinChunksMasked(data, 0, chunks, masks); got != wantMin {
				t.Fatalf("bits=%d pattern=%d: MinChunksMasked = %d, want %d", bitsN, pi, got, wantMin)
			}
		}
	}
}

// TestMaskedFoldsSubranges checks masked folds over partial chunk ranges,
// where masks index relative to chunkLo.
func TestMaskedFoldsSubranges(t *testing.T) {
	const chunks = 5
	c, _, data := packedFixture(t, 13, chunks*ChunkSize)
	masks := []uint64{0xF0F0F0F0F0F0F0F0, ^uint64(0), 0}
	lo, hi := uint64(1), uint64(4)
	var want uint64
	for i := lo * ChunkSize; i < hi*ChunkSize; i++ {
		if masks[i/ChunkSize-lo]>>(i%ChunkSize)&1 == 1 {
			want += c.Get(data, i)
		}
	}
	if got := c.SumChunksMasked(data, lo, hi, masks); got != want {
		t.Fatalf("SumChunksMasked[%d,%d) = %d, want %d", lo, hi, got, want)
	}
	if got := c.SumChunksMasked(data, 2, 2, nil); got != 0 {
		t.Fatalf("empty chunk range sum = %d, want 0", got)
	}
}

func TestMaskCombinators(t *testing.T) {
	dst := []uint64{0x0F00, 0x0F, 0}
	if got := PopcountMasks(dst); got != 8 {
		t.Fatalf("PopcountMasks = %d, want 8", got)
	}
	if AllZeroMasks(dst) {
		t.Fatal("AllZeroMasks true on live masks")
	}
	if !AllZeroMasks(make([]uint64, 3)) {
		t.Fatal("AllZeroMasks false on zero masks")
	}
	if got := PopcountMasks(nil); got != 0 {
		t.Fatalf("PopcountMasks(nil) = %d", got)
	}
	if !AllZeroMasks(nil) {
		t.Fatal("AllZeroMasks(nil) should be true")
	}
}

// TestCmpMaskChunkConstantThresholds pins the clamped constant outcomes:
// thresholds outside the width's range must produce all-ones or all-zero
// masks without reading data incorrectly.
func TestCmpMaskChunkConstantThresholds(t *testing.T) {
	c, _, data := packedFixture(t, 8, ChunkSize)
	over := c.Mask() + 1
	cases := []struct {
		op   Cmp
		thr  uint64
		want uint64
	}{
		{CmpEq, over, 0},
		{CmpNe, over, ^uint64(0)},
		{CmpLt, 0, 0},
		{CmpLt, over, ^uint64(0)},
		{CmpGe, 0, ^uint64(0)},
		{CmpGe, over, 0},
		{CmpLe, c.Mask(), ^uint64(0)},
		{CmpLe, ^uint64(0), ^uint64(0)},
		{CmpGt, c.Mask(), 0},
		{CmpGt, ^uint64(0), 0},
	}
	for _, tc := range cases {
		if got := c.CmpMaskChunk(data, 0, tc.op, tc.thr); got != tc.want {
			t.Errorf("op=%s thr=%d: mask %#x, want %#x", tc.op, tc.thr, got, tc.want)
		}
	}
}

// TestMaskPopcountMatchesEval: a predicate count is the popcount of its
// chunk masks, from the single-chunk and the range kernel alike, and must
// equal the per-element Eval count for every operator.
func TestMaskPopcountMatchesEval(t *testing.T) {
	const chunks = 4
	for _, bitsN := range []uint{5, 7, 32, 47, 64} {
		c, values, data := packedFixture(t, bitsN, chunks*ChunkSize)
		thr := c.Mask() / 3
		for _, op := range allCmps {
			var want uint64
			for _, v := range values {
				if op.Eval(v, thr) {
					want++
				}
			}
			var pc uint64
			for ch := uint64(0); ch < chunks; ch++ {
				pc += uint64(bits.OnesCount64(c.CmpMaskChunk(data, ch, op, thr)))
			}
			masks := make([]uint64, chunks)
			c.CmpMaskChunks(data, 0, chunks, op, thr, masks)
			if rc := PopcountMasks(masks); pc != want || rc != want {
				t.Errorf("bits=%d op=%s: mask popcount %d (range kernel %d), want %d", bitsN, op, pc, rc, want)
			}
		}
	}
}
