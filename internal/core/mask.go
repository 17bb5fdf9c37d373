package core

import (
	"math/bits"

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
// with op for a reader on socket: View.ReduceMasked under a pin of its
// own.
func ReduceRangeMasked(a *SmartArray, socket int, lo, hi uint64, op ReduceOp, masks []uint64) uint64 {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	return v.ReduceMasked(lo, hi, op, masks)
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

// ReduceMasked folds the selected elements of [lo, hi) of the snapshot
// with op; masks must come from Mask over the same [lo, hi). Chunks with
// a dead mask are skipped without touching the data; full masks degrade
// to the unmasked fused kernels. It runs under the caller's pin.
func (v *View) ReduceMasked(lo, hi uint64, op ReduceOp, masks []uint64) uint64 {
	if lo >= hi {
		return op.identity()
	}
	checkRange(lo, hi, v.length)
	first, n := MaskChunks(lo, hi)
	if v.zones != nil {
		return reduceMaskedZones(v, first, n, op, masks[:n])
	}
	return v.reduceChunksMasked(op, first, first+n, masks[:n])
}

// reduceMaskedZones is ReduceMasked with zone shortcuts: chunks the
// index proves constant fold in O(1) (value times popcount for sums), a
// full mask over a non-constant chunk answers min/max from the chunk
// bounds, and everything else batches into contiguous codec masked-fold
// spans (dead-mask chunks inside a span are skipped by the kernels as
// before).
func reduceMaskedZones(v *View, first, n uint64, op ReduceOp, masks []uint64) uint64 {
	acc := op.identity()
	foldSpan := func(sLo, sHi uint64) {
		if sLo < sHi {
			acc = op.fold(acc, v.reduceChunksMasked(op, first+sLo, first+sHi, masks[sLo:sHi]))
		}
	}
	spanLo := uint64(0)
	for c := uint64(0); c < n; c++ {
		m := masks[c]
		if m == 0 {
			continue
		}
		chunk := first + c
		if k, isConst := v.zones.Constant(chunk); isConst {
			foldSpan(spanLo, c)
			spanLo = c + 1
			if op == ReduceSum {
				acc += k * uint64(bits.OnesCount64(m))
			} else {
				acc = op.fold(acc, k)
			}
			continue
		}
		if op != ReduceSum && m == ^uint64(0) {
			// A full mask selects the whole (fully valid) chunk: its zone
			// bounds are the masked min/max.
			mn, mx := v.zones.ChunkBounds(chunk)
			foldSpan(spanLo, c)
			spanLo = c + 1
			if op == ReduceMax {
				acc = op.fold(acc, mx)
			} else {
				acc = op.fold(acc, mn)
			}
		}
	}
	foldSpan(spanLo, n)
	return acc
}
