package encoding

import (
	"math/bits"
	"sort"

	"smartarrays/internal/bitpack"
)

// ChunkCodec is the chunk-granular kernel interface every encoding
// implements, mirroring the fused bitpack kernels so core.SmartArray and
// the colstore scan pipeline can dispatch over the representation instead
// of assuming bit packing. A predicate is answered only as masks
// (CmpMaskChunks); counting one is a popcount of those masks.
//
// Contract (same as core's range decomposition guarantees for bitpack):
//
//   - The unmasked whole-chunk folds (SumChunks, MinChunks, MaxChunks) are
//     called only on ranges of full chunks — every element of
//     [chunkLo*64, chunkHi*64) is a real element. Ragged heads and tails
//     go through Get or the masked paths.
//   - Masked folds receive selection bitmaps whose bits beyond the valid
//     element range are clear (core.MaskRange clamps them), so a partial
//     tail chunk is safe to include.
//   - DecodeChunk and the mask kernels may be called on a partial tail
//     chunk; decoded pad values and pad mask bits are unspecified —
//     callers must ignore positions at or beyond Length().
//   - Fold identities match bitpack: sum/max of an empty selection is 0,
//     min is ^uint64(0).
type ChunkCodec interface {
	Encoded
	// DecodeChunk materializes chunk's 64 elements into out.
	DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64)
	// SumChunks folds chunks [chunkLo, chunkHi) into a sum.
	SumChunks(chunkLo, chunkHi uint64) uint64
	// MinChunks folds chunks [chunkLo, chunkHi) into a minimum.
	MinChunks(chunkLo, chunkHi uint64) uint64
	// MaxChunks folds chunks [chunkLo, chunkHi) into a maximum.
	MaxChunks(chunkLo, chunkHi uint64) uint64
	// CmpMaskChunk evaluates the predicate over one chunk into a bitmap
	// (bit i = element chunk*64+i matches).
	CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64
	// SumChunksMasked sums the selected elements of [chunkLo, chunkHi).
	SumChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64
	// MinChunksMasked folds the selected elements into a minimum.
	MinChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64
	// MaxChunksMasked folds the selected elements into a maximum.
	MaxChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64

	// CmpMaskChunks sets masks[c-chunkLo] to CmpMaskChunk(c) for every
	// chunk of [chunkLo, chunkHi); with and set it ANDs into masks
	// instead and skips chunks whose word is already zero. It returns the
	// number of chunks it evaluated.
	CmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64
	// Gather sets out[i] to element idx[i]; every index must be in range.
	Gather(idx, out []uint64)
	// WordRange maps elements [lo, hi) to the payload words reading them
	// touches: exact for BitPacked, payload-proportional for the others.
	WordRange(lo, hi uint64) (loWord, hiWord uint64)
	// PayloadWords is the one word slice every section lives in.
	PayloadWords() []uint64
	// Bind returns the same encoding reading its payload from words, a
	// copy of PayloadWords — one codec per replica of a placed region.
	Bind(words []uint64) ChunkCodec
}

// Compile-time checks: every encoding implements the chunk-codec surface.
var (
	_ ChunkCodec = (*PlainArray)(nil)
	_ ChunkCodec = (*BitPackedArray)(nil)
	_ ChunkCodec = (*DictArray)(nil)
	_ ChunkCodec = (*RLEArray)(nil)
	_ ChunkCodec = (*DeltaArray)(nil)
	_ ChunkCodec = (*FoRArray)(nil)
)

// lowMask is a bitmap selecting the low n bits (n <= 64).
func lowMask(n uint64) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// chunkSpan clamps the element window of chunks [chunkLo, chunkHi) to the
// array length, returning [lo, hi).
func chunkSpan(length, chunkLo, chunkHi uint64) (lo, hi uint64) {
	lo = chunkLo * bitpack.ChunkSize
	hi = chunkHi * bitpack.ChunkSize
	if hi > length {
		hi = length
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// cmpMaskChunks is CmpMaskChunks for codecs without a range compare
// kernel: one CmpMaskChunk per live chunk.
func cmpMaskChunks(cc ChunkCodec, chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) (evaluated uint64) {
	for i := range masks[:chunkHi-chunkLo] {
		keep := ^uint64(0)
		if and {
			if keep = masks[i]; keep == 0 {
				continue
			}
		}
		masks[i] = keep & cc.CmpMaskChunk(chunkLo+uint64(i), op, threshold)
		evaluated++
	}
	return evaluated
}

// gather is Gather for codecs without a batched kernel: one Get per index.
func gather(cc ChunkCodec, idx, out []uint64) {
	for i, x := range idx {
		out[i] = cc.Get(x)
	}
}

// The codecs below have no range kernel of their own for these entry
// points; each answers through the shared helpers above.

func (d *DictArray) Gather(idx, out []uint64) { gather(d, idx, out) }

func (r *RLEArray) CmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64 {
	return cmpMaskChunks(r, chunkLo, chunkHi, op, threshold, masks, and)
}
func (r *RLEArray) Gather(idx, out []uint64) { gather(r, idx, out) }

func (a *DeltaArray) CmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64 {
	return cmpMaskChunks(a, chunkLo, chunkHi, op, threshold, masks, and)
}
func (a *DeltaArray) Gather(idx, out []uint64) { gather(a, idx, out) }

func (f *FoRArray) Gather(idx, out []uint64) { gather(f, idx, out) }

// ---------------------------------------------------------------------------
// BitPacked (and Plain, its 64-bit case): straight delegation to the fused
// bitpack kernels.

// DecodeChunk materializes chunk's 64 elements into out.
func (b *BitPackedArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	b.codec.Unpack(b.words, chunk, out)
}

// SumChunks folds chunks [chunkLo, chunkHi) into a sum.
func (b *BitPackedArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	return b.codec.SumChunks(b.words, chunkLo, chunkHi)
}

// MinChunks folds chunks [chunkLo, chunkHi) into a minimum.
func (b *BitPackedArray) MinChunks(chunkLo, chunkHi uint64) uint64 {
	return b.codec.MinChunks(b.words, chunkLo, chunkHi)
}

// MaxChunks folds chunks [chunkLo, chunkHi) into a maximum.
func (b *BitPackedArray) MaxChunks(chunkLo, chunkHi uint64) uint64 {
	return b.codec.MaxChunks(b.words, chunkLo, chunkHi)
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap.
func (b *BitPackedArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	return b.codec.CmpMaskChunk(b.words, chunk, op, threshold)
}

// SumChunksMasked sums the selected elements of [chunkLo, chunkHi).
func (b *BitPackedArray) SumChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	return b.codec.SumChunksMasked(b.words, chunkLo, chunkHi, masks)
}

// MinChunksMasked folds the selected elements into a minimum.
func (b *BitPackedArray) MinChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	return b.codec.MinChunksMasked(b.words, chunkLo, chunkHi, masks)
}

// MaxChunksMasked folds the selected elements into a maximum.
func (b *BitPackedArray) MaxChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	return b.codec.MaxChunksMasked(b.words, chunkLo, chunkHi, masks)
}

// CmpMaskChunks runs bitpack's range compare: the predicate is resolved
// once for the whole range.
func (b *BitPackedArray) CmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64 {
	if and {
		return b.codec.CmpMaskChunksAnd(b.words, chunkLo, chunkHi, op, threshold, masks)
	}
	b.codec.CmpMaskChunks(b.words, chunkLo, chunkHi, op, threshold, masks)
	return chunkHi - chunkLo
}

// Gather is bitpack's batched gather.
func (b *BitPackedArray) Gather(idx, out []uint64) { b.codec.Gather(b.words, idx, out) }

// WordRange is the exact span of the words holding elements [lo, hi).
func (b *BitPackedArray) WordRange(lo, hi uint64) (loWord, hiWord uint64) {
	if lo >= hi {
		return 0, 0
	}
	return b.codec.WordOf(lo), b.codec.WordOf(hi-1) + 1
}

// ---------------------------------------------------------------------------
// Dict: predicates rewrite into ID space (the classic dictionary trick —
// the sorted dictionary makes order comparisons order-preserving on IDs),
// min/max fold over IDs, sums decode chunk-at-a-time.

// rewritePredicate maps (op, value) into ID space via binary search on
// the sorted dictionary: dict[id] < value exactly when id < i, the first
// ID whose value is >= value. Comparisons then run on the bit-packed IDs
// without decoding any values. A value absent from the dictionary makes
// Eq match nothing ("id < 0") and Ne everything ("id >= 0"), outcomes
// bitpack resolves without reading the IDs.
func (d *DictArray) rewritePredicate(op bitpack.Cmp, value uint64) (bitpack.Cmp, uint64) {
	i := uint64(sort.Search(len(d.dict), func(i int) bool { return d.dict[i] >= value }))
	exact := i < uint64(len(d.dict)) && d.dict[i] == value
	switch op {
	case bitpack.CmpEq, bitpack.CmpNe:
		if exact {
			return op, i
		}
		if op == bitpack.CmpEq {
			return bitpack.CmpLt, 0
		}
		return bitpack.CmpGe, 0
	case bitpack.CmpLe, bitpack.CmpGt:
		if exact {
			i++ // v <= value  ⇔  v < the next dictionary value
		}
	}
	if op == bitpack.CmpLt || op == bitpack.CmpLe {
		return bitpack.CmpLt, i
	}
	return bitpack.CmpGe, i
}

// DecodeChunk materializes chunk's 64 elements into out (pad IDs beyond
// the last element decode as 0, a valid dictionary slot).
func (d *DictArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	d.ids.DecodeChunk(chunk, out)
	for i := range out {
		out[i] = d.dict[out[i]]
	}
}

// SumChunks folds chunks [chunkLo, chunkHi) into a sum.
func (d *DictArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	var s uint64
	for c := chunkLo; c < chunkHi; c++ {
		d.ids.DecodeChunk(c, &buf)
		for _, id := range buf {
			s += d.dict[id]
		}
	}
	return s
}

// MinChunks folds chunks [chunkLo, chunkHi) into a minimum: the sorted
// dictionary makes it one ID-space fold plus a lookup.
func (d *DictArray) MinChunks(chunkLo, chunkHi uint64) uint64 {
	if chunkLo >= chunkHi {
		return ^uint64(0)
	}
	return d.dict[d.ids.MinChunks(chunkLo, chunkHi)]
}

// MaxChunks folds chunks [chunkLo, chunkHi) into a maximum.
func (d *DictArray) MaxChunks(chunkLo, chunkHi uint64) uint64 {
	if chunkLo >= chunkHi {
		return 0
	}
	return d.dict[d.ids.MaxChunks(chunkLo, chunkHi)]
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap, in
// ID space.
func (d *DictArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	op, t := d.rewritePredicate(op, threshold)
	return d.ids.CmpMaskChunk(chunk, op, t)
}

// CmpMaskChunks is the IDs' range compare, the predicate rewritten once.
func (d *DictArray) CmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64 {
	op, t := d.rewritePredicate(op, threshold)
	return d.ids.CmpMaskChunks(chunkLo, chunkHi, op, t, masks, and)
}

// SumChunksMasked sums the selected elements of [chunkLo, chunkHi).
func (d *DictArray) SumChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	var s uint64
	for c := chunkLo; c < chunkHi; c++ {
		m := masks[c-chunkLo]
		if m == 0 {
			continue
		}
		d.ids.DecodeChunk(c, &buf)
		for m != 0 {
			i := uint64(bits.TrailingZeros64(m))
			s += d.dict[buf[i]]
			m &= m - 1
		}
	}
	return s
}

// MinChunksMasked folds the selected elements into a minimum, in ID space.
func (d *DictArray) MinChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	if bitpack.AllZeroMasks(masks) {
		return ^uint64(0)
	}
	return d.dict[d.ids.MinChunksMasked(chunkLo, chunkHi, masks)]
}

// MaxChunksMasked folds the selected elements into a maximum, in ID space.
func (d *DictArray) MaxChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	if bitpack.AllZeroMasks(masks) {
		return 0
	}
	return d.dict[d.ids.MaxChunksMasked(chunkLo, chunkHi, masks)]
}

// ---------------------------------------------------------------------------
// RLE: every fold walks runs, not elements — O(runs overlapping the
// range) instead of O(elements), which is where the >10x on sorted and
// clustered columns comes from.

// forEachSegment invokes fn(value, segStart, segLen) for each maximal
// run segment overlapping the element window [eLo, eHi), in order.
// eHi is clamped to the array length.
func (r *RLEArray) forEachSegment(eLo, eHi uint64, fn func(v, start, n uint64)) {
	if eHi > r.length {
		eHi = r.length
	}
	if eLo >= eHi {
		return
	}
	run, start := r.seekRun(eLo)
	for pos := eLo; pos < eHi; run++ {
		n := r.lengths.Get(run)
		end := start + n
		segEnd := end
		if segEnd > eHi {
			segEnd = eHi
		}
		fn(r.values.Get(run), pos, segEnd-pos)
		pos = segEnd
		start = end
	}
}

// DecodeChunk materializes chunk's 64 elements into out.
func (r *RLEArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	base := chunk * bitpack.ChunkSize
	r.forEachSegment(base, base+bitpack.ChunkSize, func(v, start, n uint64) {
		for i := start - base; i < start-base+n; i++ {
			out[i] = v
		}
	})
}

// SumChunks folds chunks [chunkLo, chunkHi) into a sum: value times
// overlap per run.
func (r *RLEArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	var s uint64
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, func(v, _, n uint64) {
		s += v * n
	})
	return s
}

// MinChunks folds chunks [chunkLo, chunkHi) into a minimum.
func (r *RLEArray) MinChunks(chunkLo, chunkHi uint64) uint64 {
	m := ^uint64(0)
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, func(v, _, _ uint64) {
		if v < m {
			m = v
		}
	})
	return m
}

// MaxChunks folds chunks [chunkLo, chunkHi) into a maximum.
func (r *RLEArray) MaxChunks(chunkLo, chunkHi uint64) uint64 {
	var m uint64
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, func(v, _, _ uint64) {
		if v > m {
			m = v
		}
	})
	return m
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap: one
// evaluation per run, bits set in contiguous spans.
func (r *RLEArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	base := chunk * bitpack.ChunkSize
	var m uint64
	r.forEachSegment(base, base+bitpack.ChunkSize, func(v, start, n uint64) {
		if op.Eval(v, threshold) {
			m |= lowMask(n) << (start - base)
		}
	})
	return m
}

// SumChunksMasked sums the selected elements: per run, intersect the run
// span with the selection bitmap and popcount.
func (r *RLEArray) SumChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var s uint64
	r.foldSegmentsMasked(chunkLo, chunkHi, masks, func(v uint64, selected uint64) {
		s += v * selected
	})
	return s
}

// MinChunksMasked folds the selected elements into a minimum.
func (r *RLEArray) MinChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	m := ^uint64(0)
	r.foldSegmentsMasked(chunkLo, chunkHi, masks, func(v uint64, selected uint64) {
		if selected > 0 && v < m {
			m = v
		}
	})
	return m
}

// MaxChunksMasked folds the selected elements into a maximum.
func (r *RLEArray) MaxChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var m uint64
	r.foldSegmentsMasked(chunkLo, chunkHi, masks, func(v uint64, selected uint64) {
		if selected > 0 && v > m {
			m = v
		}
	})
	return m
}

// foldSegmentsMasked walks runs once across the masked window, reporting
// each run's value and its count of selected elements.
func (r *RLEArray) foldSegmentsMasked(chunkLo, chunkHi uint64, masks []uint64, fn func(v uint64, selected uint64)) {
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, func(v, start, n uint64) {
		var selected uint64
		for n > 0 {
			chunk := start / bitpack.ChunkSize
			bit := start % bitpack.ChunkSize
			take := bitpack.ChunkSize - bit
			if take > n {
				take = n
			}
			m := masks[chunk-chunkLo] >> bit & lowMask(take)
			selected += uint64(bits.OnesCount64(m))
			start += take
			n -= take
		}
		fn(v, selected)
	})
}
