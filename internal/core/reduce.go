package core

import (
	"fmt"
	"math/bits"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// Fused reductions: the scan-aggregate hot path (paper Function 4) routed
// through the word-at-a-time kernels in internal/bitpack. A range [lo, hi)
// decomposes into a ragged head (lo up to the next chunk boundary), a run
// of whole chunks, and a ragged tail; the head and tail — at most 63
// elements each — go through Codec.Get, the whole chunks through the fused
// kernel, so the per-element decode-into-a-buffer of the iterator path
// disappears from the dominant middle section.

// ReduceOp selects the fold of ReduceRange: the codecs' fold operator.
type ReduceOp = encoding.FoldOp

// Reduction operators. The identity returned for an empty range is 0 for
// ReduceSum and ReduceMax and ^uint64(0) for ReduceMin.
const (
	ReduceSum = encoding.FoldSum
	ReduceMax = encoding.FoldMax
	ReduceMin = encoding.FoldMin
)

// rangeParts splits [lo, hi) into a head [lo, headEnd), whole chunks
// [chunkLo, chunkHi), and a tail [tailStart, hi). Head and tail are handled
// per element; for ranges inside a single chunk everything lands in the
// head (headEnd == hi, chunkLo == chunkHi).
func rangeParts(lo, hi uint64) (headEnd, chunkLo, chunkHi, tailStart uint64) {
	chunkLo = (lo + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	chunkHi = hi / bitpack.ChunkSize
	if chunkLo >= chunkHi {
		// No whole chunk inside the range: one per-element pass.
		return hi, 0, 0, hi
	}
	return chunkLo * bitpack.ChunkSize, chunkLo, chunkHi, chunkHi * bitpack.ChunkSize
}

// checkRange panics unless [lo, hi) lies inside an array of length
// elements.
func checkRange(lo, hi, length uint64) {
	if hi > length {
		panic(fmt.Sprintf("core: range [%d,%d) out of bounds [0,%d)", lo, hi, length))
	}
}

// ReduceRange folds elements [lo, hi) with op for a reader on socket:
// View.Reduce under a pin of its own.
func ReduceRange(a *SmartArray, socket int, lo, hi uint64, op ReduceOp) uint64 {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	return v.Reduce(lo, hi, op, nil, nil)
}

// Reduce folds elements [lo, hi) of the snapshot with op: every element
// when masks is nil, else the ones masks selects — masks must then come
// from Mask over the same [lo, hi). An unmasked fold sends whole chunks to
// the chunk walk and its ragged head and tail to per-element Get; a
// masked one sends every covering chunk to the walk, which skips the
// chunks whose mask is dead. Chunks the zone index resolves accumulate
// into sc as pruned, the others — a ragged end counts as one, a dead
// masked chunk too — as scanned; sc may be nil. It runs under the
// caller's pin.
func (v *View) Reduce(lo, hi uint64, op ReduceOp, masks []uint64, sc *ScanCounts) uint64 {
	acc := op.Identity()
	if lo >= hi {
		return acc
	}
	checkRange(lo, hi, v.length)
	if masks != nil {
		first, n := MaskChunks(lo, hi)
		return v.foldChunks(first, first+n, op, masks[:n], acc, sc)
	}
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	acc = v.foldElems(lo, headEnd, op, acc, sc)
	acc = v.foldElems(tailStart, hi, op, acc, sc)
	return v.foldChunks(chunkLo, chunkHi, op, nil, acc, sc)
}

// foldElems folds a ragged range end [lo, hi) per element; a non-empty
// one decodes part of one chunk.
func (v *View) foldElems(lo, hi uint64, op ReduceOp, acc uint64, sc *ScanCounts) uint64 {
	if lo < hi {
		sc.addScanned(1)
	}
	for i := lo; i < hi; i++ {
		acc = op.Combine(acc, v.Get(i))
	}
	return acc
}

// foldChunks folds the elements of chunks [chunkLo, chunkHi) that masks
// selects (every element when masks is nil, the chunks then whole) into
// acc. Without a zone index that is one codec fold. With one, a chunk the
// index answers folds in O(1): a constant chunk as its value (times the
// selected count for a sum), and a wholly selected chunk's min or max as
// its zone bound. Those chunks count as pruned; each maximal run of the
// others goes to the codec's fold in one call and counts as scanned.
func (v *View) foldChunks(chunkLo, chunkHi uint64, op ReduceOp, masks []uint64, acc uint64, sc *ScanCounts) uint64 {
	z := v.zones
	if z == nil || chunkLo == chunkHi {
		sc.addScanned(chunkHi - chunkLo)
		return op.Combine(acc, v.codec.FoldChunks(op, chunkLo, chunkHi, masks))
	}
	span, pruned := chunkLo, uint64(0)
	flush := func(end uint64) {
		if span < end {
			var sub []uint64
			if masks != nil {
				sub = masks[span-chunkLo : end-chunkLo]
			}
			acc = op.Combine(acc, v.codec.FoldChunks(op, span, end, sub))
		}
	}
	for c := chunkLo; c < chunkHi; c++ {
		m := ^uint64(0)
		if masks != nil {
			if m = masks[c-chunkLo]; m == 0 {
				continue // a dead chunk stays in its run: the codec skips it
			}
		}
		k, mx := z.ChunkBounds(c)
		switch {
		case k == mx && op == ReduceSum:
			k *= uint64(bits.OnesCount64(m))
		case k != mx && (op == ReduceSum || m != ^uint64(0)):
			continue
		case op == ReduceMax:
			k = mx
		}
		flush(c)
		acc = op.Combine(acc, k)
		span = c + 1
		pruned++
	}
	flush(chunkHi)
	sc.addPruned(pruned)
	sc.addScanned(chunkHi - chunkLo - pruned)
	return acc
}
