package encoding

import (
	"math/bits"
	"sort"

	"smartarrays/internal/bitpack"
)

// FoldOp selects a fold: a sum, a maximum or a minimum.
type FoldOp int

// Fold operators. The identity, the result over an empty selection, is 0
// for FoldSum and FoldMax and ^uint64(0) for FoldMin.
const (
	FoldSum FoldOp = iota
	FoldMax
	FoldMin
)

// String renders the operator.
func (op FoldOp) String() string {
	return [...]string{"sum", "max", "min"}[op]
}

// Identity is the fold's neutral element (the result over an empty
// selection).
func (op FoldOp) Identity() uint64 {
	if op == FoldMin {
		return ^uint64(0)
	}
	return 0
}

// Combine folds one more value (or a partial result) into acc.
func (op FoldOp) Combine(acc, v uint64) uint64 {
	switch op {
	case FoldSum:
		return acc + v
	case FoldMax:
		return max(acc, v)
	}
	return min(acc, v)
}

// combineN folds v, repeated n times, into acc.
func (op FoldOp) combineN(acc, v, n uint64) uint64 {
	if op == FoldSum {
		return acc + v*n
	}
	if n == 0 {
		return acc
	}
	return op.Combine(acc, v)
}

// foldSelected folds the values of vals that m selects into acc: a plain
// loop over the whole chunk when m selects all of it, else a walk over
// m's set bits.
func (op FoldOp) foldSelected(acc uint64, vals *[bitpack.ChunkSize]uint64, m uint64) uint64 {
	switch {
	case m == ^uint64(0) && op == FoldSum:
		for _, v := range vals {
			acc += v
		}
	case m == ^uint64(0):
		for _, v := range vals {
			acc = op.Combine(acc, v)
		}
	case op == FoldSum:
		for ; m != 0; m &= m - 1 {
			acc += vals[bits.TrailingZeros64(m)]
		}
	default:
		for ; m != 0; m &= m - 1 {
			acc = op.Combine(acc, vals[bits.TrailingZeros64(m)])
		}
	}
	return acc
}

// chunkSelection is the selection word of the i-th chunk of a fold: all
// of it when masks is nil.
func chunkSelection(masks []uint64, i uint64) uint64 {
	if masks == nil {
		return ^uint64(0)
	}
	return masks[i]
}

// selectsNone reports whether a fold over chunks [chunkLo, chunkHi)
// selects no element.
func selectsNone(chunkLo, chunkHi uint64, masks []uint64) bool {
	return chunkLo >= chunkHi || masks != nil && bitpack.AllZeroMasks(masks)
}

// ChunkCodec is the chunk-granular kernel interface every encoding
// implements, mirroring the fused bitpack kernels so core.SmartArray and
// the colstore scan pipeline can dispatch over the representation instead
// of assuming bit packing. Every fold is one method, FoldChunks; a
// predicate is answered only as masks (CmpMaskChunks), and counting one is
// a popcount of those masks.
//
// Contract (same as core's range decomposition guarantees for bitpack):
//
//   - FoldChunks with nil masks folds every element of chunks [chunkLo,
//     chunkHi) and is called only on ranges of full chunks — every element
//     of [chunkLo*64, chunkHi*64) is a real element. Ragged heads and
//     tails go through Get or a masked fold.
//   - With masks, FoldChunks folds the elements masks selects, one word
//     per chunk (masks[c-chunkLo]). Bits beyond the valid element range
//     are clear (core.MaskRange clamps them), so a partial tail chunk is
//     safe to include.
//   - DecodeChunk and the mask kernels may be called on a partial tail
//     chunk; decoded pad values and pad mask bits are unspecified —
//     callers must ignore positions at or beyond Length().
//   - Fold identities match bitpack: sum/max of an empty selection is 0,
//     min is ^uint64(0).
type ChunkCodec interface {
	Encoded
	// DecodeChunk materializes chunk's 64 elements into out.
	DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64)
	// FoldChunks folds the elements of chunks [chunkLo, chunkHi) that
	// masks selects with op — every element when masks is nil.
	FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64
	// SumChunks is FoldChunks(FoldSum, chunkLo, chunkHi, nil).
	SumChunks(chunkLo, chunkHi uint64) uint64
	// CmpMaskChunk evaluates the predicate over one chunk into a bitmap
	// (bit i = element chunk*64+i matches).
	CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64

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

// FoldChunks dispatches to the bitpack kernel for op, fused or masked.
func (b *BitPackedArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	c, w := b.codec, b.words
	switch {
	case masks == nil && op == FoldSum:
		return c.SumChunks(w, chunkLo, chunkHi)
	case masks == nil && op == FoldMax:
		return c.MaxChunks(w, chunkLo, chunkHi)
	case masks == nil:
		return c.MinChunks(w, chunkLo, chunkHi)
	case op == FoldSum:
		return c.SumChunksMasked(w, chunkLo, chunkHi, masks)
	case op == FoldMax:
		return c.MaxChunksMasked(w, chunkLo, chunkHi, masks)
	}
	return c.MinChunksMasked(w, chunkLo, chunkHi, masks)
}

// SumChunks is FoldChunks(FoldSum, chunkLo, chunkHi, nil).
func (b *BitPackedArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	return b.FoldChunks(FoldSum, chunkLo, chunkHi, nil)
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap.
func (b *BitPackedArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	return b.codec.CmpMaskChunk(b.words, chunk, op, threshold)
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

// FoldChunks folds min and max in ID space — the sorted dictionary makes
// them one fold of the IDs plus a lookup — and sums values decoded chunk
// by chunk.
func (d *DictArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	if op != FoldSum {
		if selectsNone(chunkLo, chunkHi, masks) {
			return op.Identity()
		}
		return d.dict[d.ids.FoldChunks(op, chunkLo, chunkHi, masks)]
	}
	var ids [bitpack.ChunkSize]uint64
	var s uint64
	for c := chunkLo; c < chunkHi; c++ {
		m := chunkSelection(masks, c-chunkLo)
		if m == 0 {
			continue
		}
		d.ids.DecodeChunk(c, &ids)
		if m == ^uint64(0) {
			for _, id := range &ids {
				s += d.dict[id]
			}
			continue
		}
		for ; m != 0; m &= m - 1 {
			s += d.dict[ids[bits.TrailingZeros64(m)]]
		}
	}
	return s
}

// SumChunks is FoldChunks(FoldSum, chunkLo, chunkHi, nil).
func (d *DictArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	return d.FoldChunks(FoldSum, chunkLo, chunkHi, nil)
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

// FoldChunks walks the runs overlapping the chunks once, folding each
// run's value times its overlap — with masks, times its count of
// selected elements. The unmasked sum, the common fold, runs without a
// per-run dispatch, which costs it a tenth on short runs.
func (r *RLEArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	acc := op.Identity()
	fold := func(v, start, n uint64) {
		if masks != nil {
			n = selectedIn(masks[start/bitpack.ChunkSize-chunkLo:], start%bitpack.ChunkSize, n)
		}
		acc = op.combineN(acc, v, n)
	}
	if masks == nil && op == FoldSum {
		fold = func(v, _, n uint64) { acc += v * n }
	}
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, fold)
	return acc
}

// selectedIn counts the bits masks selects of the n elements starting at
// bit of masks[0].
func selectedIn(masks []uint64, bit, n uint64) (selected uint64) {
	for i := 0; n > 0; i++ {
		take := min(bitpack.ChunkSize-bit, n)
		selected += uint64(bits.OnesCount64(masks[i] >> bit & lowMask(take)))
		bit, n = 0, n-take
	}
	return selected
}

// SumChunks is FoldChunks(FoldSum, chunkLo, chunkHi, nil).
func (r *RLEArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	return r.FoldChunks(FoldSum, chunkLo, chunkHi, nil)
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
