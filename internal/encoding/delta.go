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
// found once at build time and folded in O(1) per chunk. The payload is
// the packed bases followed by the packed deltas.
type DeltaArray struct {
	payload
	bases  BitPackedArray // first value of each chunk
	deltas BitPackedArray // zigzag deltas, full length
	// consts has bit c set when chunk c's deltas are all zero: one bit
	// test per chunk instead of a scan of its packed delta words.
	consts []uint64
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
		consts:  make([]uint64, (chunks+63)/64),
	}
	wpc := a.deltas.codec.WordsPerChunk()
	for c := uint64(0); c < chunks; c++ {
		if !slices.ContainsFunc(a.deltas.words[c*wpc:(c+1)*wpc], func(w uint64) bool { return w != 0 }) {
			a.consts[c/64] |= 1 << (c % 64)
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

// constChunk reports whether chunk's deltas are all zero: the chunk is a
// single constant span, its base.
func (a *DeltaArray) constChunk(chunk uint64) bool {
	return a.consts[chunk/64]>>(chunk%64)&1 == 1
}

// ConstChunkShare is the fraction of chunks that are constant spans, a
// cost-model signal for how much of the array folds without decoding.
func (a *DeltaArray) ConstChunkShare() float64 {
	chunks := (a.length + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	if chunks == 0 {
		return 0
	}
	return float64(bitpack.PopcountMasks(a.consts)) / float64(chunks)
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

// FoldChunks folds the selected elements chunk by chunk; a constant
// chunk folds its base once per selected element, without decoding.
func (a *DeltaArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	acc := op.Identity()
	for c := chunkLo; c < chunkHi; c++ {
		switch m := chunkSelection(masks, c-chunkLo); {
		case m == 0:
		case a.constChunk(c):
			acc = op.combineN(acc, a.bases.Get(c), uint64(bits.OnesCount64(m)))
		default:
			a.DecodeChunk(c, &buf)
			acc = op.foldSelected(acc, &buf, m)
		}
	}
	return acc
}

// SumChunks is FoldChunks(FoldSum, chunkLo, chunkHi, nil).
func (a *DeltaArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	return a.FoldChunks(FoldSum, chunkLo, chunkHi, nil)
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
