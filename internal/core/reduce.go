package core

import (
	"fmt"

	"smartarrays/internal/bitpack"
)

// Fused reductions: the scan-aggregate hot path (paper Function 4) routed
// through the word-at-a-time kernels in internal/bitpack. A range [lo, hi)
// decomposes into a ragged head (lo up to the next chunk boundary), a run
// of whole chunks, and a ragged tail; the head and tail — at most 63
// elements each — go through Codec.Get, the whole chunks through the fused
// kernel, so the per-element decode-into-a-buffer of the iterator path
// disappears from the dominant middle section.

// ReduceOp selects the fold of ReduceRange.
type ReduceOp int

// Reduction operators. The identity returned for an empty range is 0 for
// ReduceSum and ReduceMax and ^uint64(0) for ReduceMin.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

// String renders the operator.
func (op ReduceOp) String() string {
	return [...]string{"sum", "max", "min"}[op]
}

// identity is the fold's neutral element (the result over an empty range).
func (op ReduceOp) identity() uint64 {
	if op == ReduceMin {
		return ^uint64(0)
	}
	return 0
}

// fold combines one more value (or a partial result) into acc.
func (op ReduceOp) fold(acc, v uint64) uint64 {
	switch op {
	case ReduceSum:
		return acc + v
	case ReduceMax:
		if v > acc {
			return v
		}
	default:
		if v < acc {
			return v
		}
	}
	return acc
}

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
	return v.Reduce(lo, hi, op, nil)
}

// Reduce folds elements [lo, hi) of the snapshot with op, dispatching
// whole chunks to the fused chunk kernels of its representation (or to
// the zone index, where it answers without the payload) and the ragged
// head and tail to per-element Get. Chunks the index resolves (constant
// folds for sums, chunk bounds for min/max) accumulate into sc as pruned,
// decoded chunks as scanned; sc may be nil. It runs under the caller's
// pin.
func (v *View) Reduce(lo, hi uint64, op ReduceOp, sc *ScanCounts) uint64 {
	acc := op.identity()
	if lo >= hi {
		return acc
	}
	checkRange(lo, hi, v.length)
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	acc = v.reduceElems(lo, headEnd, op, acc, sc)
	acc = v.reduceElems(tailStart, hi, op, acc, sc)
	if chunkLo == chunkHi {
		return acc
	}
	if v.zones != nil {
		return zoneReduceChunks(v, chunkLo, chunkHi, op, acc, sc)
	}
	sc.addScanned(chunkHi - chunkLo)
	return op.fold(acc, v.reduceChunks(op, chunkLo, chunkHi))
}

// reduceElems folds a ragged range end [lo, hi) per element; a non-empty
// one decodes part of one chunk.
func (v *View) reduceElems(lo, hi uint64, op ReduceOp, acc uint64, sc *ScanCounts) uint64 {
	if lo < hi {
		sc.addScanned(1)
	}
	for i := lo; i < hi; i++ {
		acc = op.fold(acc, v.Get(i))
	}
	return acc
}

// zoneReduceChunks folds whole chunks [chunkLo, chunkHi) through the zone
// index: min/max read the per-chunk bounds without touching the payload
// (every chunk accounts as pruned), sums fold constant chunks in O(1)
// (pruned) and batch the rest into contiguous reduceChunks spans (scanned).
func zoneReduceChunks(v *View, chunkLo, chunkHi uint64, op ReduceOp, acc uint64, sc *ScanCounts) uint64 {
	z := v.zones
	if op != ReduceSum {
		for c := chunkLo; c < chunkHi; c++ {
			mn, mx := z.ChunkBounds(c)
			if op == ReduceMax {
				acc = op.fold(acc, mx)
			} else {
				acc = op.fold(acc, mn)
			}
		}
		sc.addPruned(chunkHi - chunkLo)
		return acc
	}
	spanLo := chunkLo
	var pruned uint64
	for c := chunkLo; c < chunkHi; c++ {
		if k, ok := z.Constant(c); ok {
			acc += v.reduceChunks(ReduceSum, spanLo, c)
			spanLo = c + 1
			acc += k * bitpack.ChunkSize
			pruned++
		}
	}
	sc.addPruned(pruned)
	sc.addScanned(chunkHi - chunkLo - pruned)
	return acc + v.reduceChunks(ReduceSum, spanLo, chunkHi)
}
