package core

import (
	"smartarrays/internal/bitpack"
)

// Selection-bitmap scans: the predicated counterpart of the fused
// reductions in reduce.go. A predicate over a range [lo, hi) becomes one
// 64-bit match mask per covering chunk (bit j of mask c selects row
// (firstChunk+c)*ChunkSize + j); masks from several predicate columns AND
// together word-at-a-time, and the masked folds consume the conjunction,
// skipping chunks whose mask went dead. Ragged range heads and tails are
// handled here, not by the kernels: the kernels always evaluate whole
// chunks (in bounds thanks to the chunk-rounded layout) and the boundary
// bits outside [lo, hi) are cleared in the emitted masks, so a mask can
// never select a row outside the range.

// MaskChunks returns the first covering chunk and the number of chunks
// (== mask words) a selection over [lo, hi) needs. For an empty range the
// count is 0.
func MaskChunks(lo, hi uint64) (firstChunk, numChunks uint64) {
	if lo >= hi {
		return lo / bitpack.ChunkSize, 0
	}
	first := lo / bitpack.ChunkSize
	last := (hi - 1) / bitpack.ChunkSize
	return first, last - first + 1
}

// MaskRange fills masks[0:numChunks] (see MaskChunks) with the match masks
// of "element op threshold" over [lo, hi) for a reader on socket, and
// reports whether any row matched: View.Mask under a pin of its own.
func MaskRange(a *SmartArray, socket int, lo, hi uint64, op bitpack.Cmp, threshold uint64, masks []uint64) bool {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	return v.Mask(lo, hi, op, threshold, masks, false, nil)
}

// MaskRangeAnd ANDs the predicate over [lo, hi) into masks, as filled by
// a prior MaskRange over the same range, and reports whether any row
// survives the conjunction: View.Mask under a pin of its own.
func MaskRangeAnd(a *SmartArray, socket int, lo, hi uint64, op bitpack.Cmp, threshold uint64, masks []uint64) bool {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	return v.Mask(lo, hi, op, threshold, masks, true, nil)
}

// ReduceRangeMasked folds the elements of [lo, hi) that masks selects
// with op for a reader on socket: View.Reduce under a pin of its own.
func ReduceRangeMasked(a *SmartArray, socket int, lo, hi uint64, op ReduceOp, masks []uint64) uint64 {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	return v.Reduce(lo, hi, op, masks, nil)
}

// Mask evaluates "element op threshold" over [lo, hi) of the snapshot
// into masks[0:numChunks] (see MaskChunks) and reports whether any row
// matched. Without and it fills masks; with and it ANDs into masks as a
// prior Mask over the same range left them, skipping chunks whose word
// is already dead. Either way the bits outside [lo, hi) end up clear —
// clamping an already clamped word changes nothing. Chunks that ran the
// codec compare accumulate into sc as scanned; chunks resolved by a zone
// verdict, or skipped for a dead word (their payload was never touched),
// as pruned. sc may be nil. It runs under the caller's pin.
func (v *View) Mask(lo, hi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool, sc *ScanCounts) bool {
	if lo >= hi {
		return false
	}
	checkRange(lo, hi, v.length)
	first, n := MaskChunks(lo, hi)
	v.maskChunks(first, n, op, threshold, masks, and, sc)
	// Clamp the ragged head and tail: only the first and last covering
	// chunks can have bits outside [lo, hi).
	if head := lo - first*bitpack.ChunkSize; head != 0 {
		masks[0] &= ^uint64(0) << head
	}
	if end := (first + n) * bitpack.ChunkSize; end > hi {
		masks[n-1] &= ^uint64(0) >> (end - hi)
	}
	return !bitpack.AllZeroMasks(masks[:n])
}
