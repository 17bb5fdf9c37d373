package encoding

import (
	"math/bits"
	"slices"

	"smartarrays/internal/bitpack"
)

// zigzag maps a wrapping uint64 difference onto small magnitudes:
// 0,-1,+1,-2,... -> 0,1,2,3,... so ascending-by-small-steps data packs at
// a few bits per delta. Wrapping arithmetic makes the transform lossless
// for every pair of uint64 values.
func zigzag(diff uint64) uint64 {
	d := int64(diff)
	return uint64((d << 1) ^ (d >> 63))
}

// unzigzag inverts zigzag back to a wrapping difference.
func unzigzag(z uint64) uint64 {
	return uint64(int64(z>>1) ^ -int64(z&1))
}

// DeltaArray stores each 64-element chunk as a bit-packed first value
// ("base") plus bit-packed zigzag deltas between neighbours (delta 0 at
// each chunk start, so chunks decode independently). Sorted or
// slowly-varying data packs at the delta width instead of the value
// width, and chunks whose deltas are all zero — constant spans — are
// detected from the packed words and folded in O(1) per chunk. The
// payload is the packed bases followed by the packed deltas.
type DeltaArray struct {
	payload
	bases  BitPackedArray // first value of each chunk
	deltas BitPackedArray // zigzag deltas, full length
	// constChunks counts chunks whose deltas are all zero, a cost-model
	// signal for how much of the array folds without decoding.
	constChunks uint64
}

// NewDelta builds a delta encoding of values.
func NewDelta(values []uint64) *DeltaArray {
	n := uint64(len(values))
	chunks := (n + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	bases := make([]uint64, chunks)
	deltas := make([]uint64, n)
	for i, v := range values {
		if i%bitpack.ChunkSize == 0 {
			bases[i/bitpack.ChunkSize] = v
			deltas[i] = 0
		} else {
			deltas[i] = zigzag(v - values[i-1])
		}
	}
	a := &DeltaArray{
		payload: payload{length: n},
		bases:   *NewBitPacked(bases),
		deltas:  *NewBitPacked(deltas),
	}
	for c := uint64(0); c < chunks; c++ {
		if a.constChunk(c) {
			a.constChunks++
		}
	}
	return a.Bind(slices.Concat(a.bases.words, a.deltas.words)).(*DeltaArray)
}

// Bind returns the encoding reading its payload from words.
func (a *DeltaArray) Bind(words []uint64) ChunkCodec {
	c := *a
	c.words, c.bases = words, a.bases.at(words)
	c.deltas = a.deltas.at(words[len(c.bases.words):])
	return &c
}

// constChunk reports whether chunk's deltas are all zero (the chunk is a
// single constant span) by testing the packed words directly — no decode.
func (a *DeltaArray) constChunk(chunk uint64) bool {
	wpc := a.deltas.codec.WordsPerChunk()
	for _, w := range a.deltas.words[chunk*wpc : (chunk+1)*wpc] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ConstChunkShare is the fraction of chunks that are constant spans.
func (a *DeltaArray) ConstChunkShare() float64 {
	chunks := (a.length + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	if chunks == 0 {
		return 0
	}
	return float64(a.constChunks) / float64(chunks)
}

// Kind identifies the technique.
func (a *DeltaArray) Kind() Kind { return Delta }

// Get returns the element at index: the chunk base plus the prefix sum of
// the chunk's deltas up to index — random access pays a partial chunk
// decode, which is what the cost model charges it for.
func (a *DeltaArray) Get(index uint64) uint64 {
	if index >= a.length {
		panic("encoding: delta index out of range")
	}
	chunk := index / bitpack.ChunkSize
	v := a.bases.Get(chunk)
	if a.constChunk(chunk) {
		return v
	}
	base := chunk * bitpack.ChunkSize
	for i := base + 1; i <= index; i++ {
		v += unzigzag(a.deltas.Get(i))
	}
	return v
}

// DecodeChunk materializes chunk's 64 elements into out.
func (a *DeltaArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	v := a.bases.Get(chunk)
	if a.constChunk(chunk) {
		for i := range out {
			out[i] = v
		}
		return
	}
	a.deltas.DecodeChunk(chunk, out)
	for i := range out {
		v += unzigzag(out[i])
		out[i] = v
	}
}

// SumChunks folds chunks [chunkLo, chunkHi) into a sum; constant chunks
// contribute base*64 without decoding.
func (a *DeltaArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	var s uint64
	for c := chunkLo; c < chunkHi; c++ {
		if a.constChunk(c) {
			s += a.bases.Get(c) * bitpack.ChunkSize
			continue
		}
		a.DecodeChunk(c, &buf)
		for _, v := range buf {
			s += v
		}
	}
	return s
}

// MinChunks folds chunks [chunkLo, chunkHi) into a minimum.
func (a *DeltaArray) MinChunks(chunkLo, chunkHi uint64) uint64 {
	m := ^uint64(0)
	a.foldChunks(chunkLo, chunkHi, func(v uint64) {
		if v < m {
			m = v
		}
	})
	return m
}

// MaxChunks folds chunks [chunkLo, chunkHi) into a maximum.
func (a *DeltaArray) MaxChunks(chunkLo, chunkHi uint64) uint64 {
	var m uint64
	a.foldChunks(chunkLo, chunkHi, func(v uint64) {
		if v > m {
			m = v
		}
	})
	return m
}

// foldChunks invokes fn on every value of chunks [chunkLo, chunkHi) —
// once per constant chunk, which min and max need no more often.
func (a *DeltaArray) foldChunks(chunkLo, chunkHi uint64, fn func(v uint64)) {
	var buf [bitpack.ChunkSize]uint64
	for c := chunkLo; c < chunkHi; c++ {
		if a.constChunk(c) {
			fn(a.bases.Get(c))
			continue
		}
		a.DecodeChunk(c, &buf)
		for _, v := range buf {
			fn(v)
		}
	}
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap;
// constant chunks produce a constant mask in O(1).
func (a *DeltaArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	if a.constChunk(chunk) {
		if op.Eval(a.bases.Get(chunk), threshold) {
			return ^uint64(0)
		}
		return 0
	}
	var buf [bitpack.ChunkSize]uint64
	a.DecodeChunk(chunk, &buf)
	var m uint64
	for i, v := range buf {
		if op.Eval(v, threshold) {
			m |= uint64(1) << uint(i)
		}
	}
	return m
}

// SumChunksMasked sums the selected elements; constant chunks are a
// popcount times the base.
func (a *DeltaArray) SumChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	var s uint64
	for c := chunkLo; c < chunkHi; c++ {
		m := masks[c-chunkLo]
		if m == 0 {
			continue
		}
		if a.constChunk(c) {
			s += a.bases.Get(c) * uint64(bits.OnesCount64(m))
			continue
		}
		a.DecodeChunk(c, &buf)
		for m != 0 {
			i := uint64(bits.TrailingZeros64(m))
			s += buf[i]
			m &= m - 1
		}
	}
	return s
}

// MinChunksMasked folds the selected elements into a minimum.
func (a *DeltaArray) MinChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	m := ^uint64(0)
	a.foldChunksMasked(chunkLo, chunkHi, masks, func(v uint64) {
		if v < m {
			m = v
		}
	})
	return m
}

// MaxChunksMasked folds the selected elements into a maximum.
func (a *DeltaArray) MaxChunksMasked(chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var m uint64
	a.foldChunksMasked(chunkLo, chunkHi, masks, func(v uint64) {
		if v > m {
			m = v
		}
	})
	return m
}

func (a *DeltaArray) foldChunksMasked(chunkLo, chunkHi uint64, masks []uint64, fn func(v uint64)) {
	var buf [bitpack.ChunkSize]uint64
	for c := chunkLo; c < chunkHi; c++ {
		m := masks[c-chunkLo]
		if m == 0 {
			continue
		}
		if a.constChunk(c) {
			fn(a.bases.Get(c))
			continue
		}
		a.DecodeChunk(c, &buf)
		for m != 0 {
			i := uint64(bits.TrailingZeros64(m))
			fn(buf[i])
			m &= m - 1
		}
	}
}
