// Fused aggregation kernels: scan-aggregate over packed words without
// materializing decoded elements.
//
// The paper's dominant operation is the scan-aggregate (Function 4): walk a
// bit-compressed array and fold every element into an accumulator. The
// iterator path (Function 3 + Get) decodes each chunk into a 64-element
// buffer and then re-reads it; the kernels here fuse decode and fold into a
// single pass over the packed words — each packed word is loaded once, its
// elements are extracted with the same shift/mask schedule Unpack uses, and
// the accumulator is updated in place. No per-element Get, no chunk buffer,
// no per-element branch beyond the word-advance the encoding itself forces.
//
// All kernels operate on whole chunks [chunkLo, chunkHi): chunk boundaries
// are word-aligned for every width (see package comment), so callers
// (core.ReduceRange) handle ragged range heads and tails with Codec.Get.
// As with Get/Unpack, widths 32 and 64 take dedicated fast paths that skip
// shifting and masking entirely, mirroring the paper's specialized classes.
package bitpack

// Cmp is a threshold-predicate comparison operator for the mask kernels
// (CmpMaskChunk, CmpMaskChunks).
type Cmp int

// Comparison operators, evaluated as "element <op> threshold".
const (
	CmpEq Cmp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Eval applies the operator to (element, threshold).
func (op Cmp) Eval(v, threshold uint64) bool {
	switch op {
	case CmpEq:
		return v == threshold
	case CmpNe:
		return v != threshold
	case CmpLt:
		return v < threshold
	case CmpLe:
		return v <= threshold
	case CmpGt:
		return v > threshold
	default:
		return v >= threshold
	}
}

// String renders the operator.
func (op Cmp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// SumChunks returns the sum of every element in chunks [chunkLo, chunkHi),
// reading each packed word exactly once. Overflow wraps, as with any uint64
// sum.
func (c Codec) SumChunks(data []uint64, chunkLo, chunkHi uint64) uint64 {
	if chunkLo >= chunkHi {
		return 0
	}
	var sum uint64
	switch c.bits {
	case 64:
		for _, w := range data[chunkLo*ChunkSize : chunkHi*ChunkSize] {
			sum += w
		}
		return sum
	case 32:
		for _, w := range data[chunkLo*32 : chunkHi*32] {
			sum += w&0xFFFFFFFF + w>>32
		}
		return sum
	}
	bitsPer := uint64(c.bits)
	for ch := chunkLo; ch < chunkHi; ch++ {
		word := ch * c.wordsPerChunk
		value := data[word]
		bitInWord := uint64(0)
		for i := 0; i < ChunkSize; i++ {
			switch {
			case bitInWord+bitsPer < 64:
				sum += (value >> bitInWord) & c.mask
				bitInWord += bitsPer
			case bitInWord+bitsPer == 64:
				sum += (value >> bitInWord) & c.mask
				bitInWord = 0
				word++
				if i < ChunkSize-1 {
					value = data[word]
				}
			default:
				next := data[word+1]
				sum += c.mask & ((value >> bitInWord) | (next << (64 - bitInWord)))
				bitInWord = bitInWord + bitsPer - 64
				word++
				value = next
			}
		}
	}
	return sum
}

// MaxChunks returns the maximum element in chunks [chunkLo, chunkHi), or 0
// for an empty chunk range (the fold identity of an unsigned max).
func (c Codec) MaxChunks(data []uint64, chunkLo, chunkHi uint64) uint64 {
	var max uint64
	c.foldChunks(data, chunkLo, chunkHi, func(v uint64) {
		if v > max {
			max = v
		}
	})
	return max
}

// MinChunks returns the minimum element in chunks [chunkLo, chunkHi), or
// ^uint64(0) for an empty chunk range (the fold identity of an unsigned
// min).
func (c Codec) MinChunks(data []uint64, chunkLo, chunkHi uint64) uint64 {
	min := ^uint64(0)
	c.foldChunks(data, chunkLo, chunkHi, func(v uint64) {
		if v < min {
			min = v
		}
	})
	return min
}

// foldChunks feeds every element of chunks [chunkLo, chunkHi) to fn in
// index order, one packed-word load per word. It backs the max/min
// kernels; the sum kernel is written out longhand because the accumulate
// inlines there and that is the hottest path.
func (c Codec) foldChunks(data []uint64, chunkLo, chunkHi uint64, fn func(v uint64)) {
	if chunkLo >= chunkHi {
		return
	}
	switch c.bits {
	case 64:
		for _, w := range data[chunkLo*ChunkSize : chunkHi*ChunkSize] {
			fn(w)
		}
		return
	case 32:
		for _, w := range data[chunkLo*32 : chunkHi*32] {
			fn(w & 0xFFFFFFFF)
			fn(w >> 32)
		}
		return
	}
	bitsPer := uint64(c.bits)
	for ch := chunkLo; ch < chunkHi; ch++ {
		word := ch * c.wordsPerChunk
		value := data[word]
		bitInWord := uint64(0)
		for i := 0; i < ChunkSize; i++ {
			switch {
			case bitInWord+bitsPer < 64:
				fn((value >> bitInWord) & c.mask)
				bitInWord += bitsPer
			case bitInWord+bitsPer == 64:
				fn((value >> bitInWord) & c.mask)
				bitInWord = 0
				word++
				if i < ChunkSize-1 {
					value = data[word]
				}
			default:
				next := data[word+1]
				fn(c.mask & ((value >> bitInWord) | (next << (64 - bitInWord))))
				bitInWord = bitInWord + bitsPer - 64
				word++
				value = next
			}
		}
	}
}
