package encoding

import (
	"smartarrays/internal/bitpack"
)

// FoRArray is frame-of-reference encoding: one reference value (the
// minimum) plus bit-packed residuals at the width of the value *range*.
// Narrow ranges far from zero — timestamps, surrogate keys, sensor
// baselines — pack at MinBits(max-min) instead of MinBits(max). Every
// fold delegates to the fused bitpack kernels over the residuals plus
// reference algebra, and predicates rewrite their thresholds into
// residual space so comparisons never decode.
type FoRArray struct {
	payload
	ref   uint64
	resid BitPackedArray
}

// NewFoR builds a frame-of-reference encoding of values.
func NewFoR(values []uint64) *FoRArray {
	var ref uint64
	if len(values) > 0 {
		ref = values[0]
		for _, v := range values {
			if v < ref {
				ref = v
			}
		}
	}
	resid := make([]uint64, len(values))
	for i, v := range values {
		resid[i] = v - ref
	}
	f := &FoRArray{payload: payload{length: uint64(len(values))}, ref: ref, resid: *NewBitPacked(resid)}
	return f.Bind(f.resid.words).(*FoRArray)
}

// Kind identifies the technique.
func (f *FoRArray) Kind() Kind { return FoR }

// Bind returns the encoding reading its payload (the residuals) from words.
func (f *FoRArray) Bind(words []uint64) ChunkCodec {
	c := *f
	c.words, c.resid = words, f.resid.at(words)
	return &c
}

// Bits is the residual width.
func (f *FoRArray) Bits() uint { return f.resid.Bits() }

// Get returns the element at index.
func (f *FoRArray) Get(index uint64) uint64 {
	if index >= f.length {
		panic("encoding: for index out of range")
	}
	return f.ref + f.resid.Get(index)
}

// DecodeChunk materializes chunk's 64 elements into out.
func (f *FoRArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	f.resid.DecodeChunk(chunk, out)
	for i := range out {
		out[i] += f.ref
	}
}

// FoldChunks folds the residuals and adds ref back: a sum adds ref times
// the selected count (pad residuals are zero, so clamping the count to
// the array length keeps partial tail chunks exact too), min and max add
// it once — except over an empty selection, whose identity ref must not
// offset.
func (f *FoRArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	if op == FoldSum {
		n := bitpack.PopcountMasks(masks)
		if masks == nil {
			lo, hi := chunkSpan(f.length, chunkLo, chunkHi)
			n = hi - lo
		}
		return f.resid.FoldChunks(op, chunkLo, chunkHi, masks) + f.ref*n
	}
	if selectsNone(chunkLo, chunkHi, masks) {
		return op.Identity()
	}
	return f.ref + f.resid.FoldChunks(op, chunkLo, chunkHi, masks)
}

// SumChunks is FoldChunks(FoldSum, chunkLo, chunkHi, nil).
func (f *FoRArray) SumChunks(chunkLo, chunkHi uint64) uint64 {
	return f.FoldChunks(FoldSum, chunkLo, chunkHi, nil)
}

// rewritePredicate maps a value-space predicate into residual space:
// threshold-ref is exact (the fused bitpack kernels already handle
// thresholds beyond the packed width). Below ref every element compares
// greater, so Eq/Lt/Le match nothing ("r < 0") and Ne/Gt/Ge everything
// ("r >= 0"), outcomes bitpack resolves without reading the residuals.
func (f *FoRArray) rewritePredicate(op bitpack.Cmp, threshold uint64) (bitpack.Cmp, uint64) {
	if threshold >= f.ref {
		return op, threshold - f.ref
	}
	switch op {
	case bitpack.CmpEq, bitpack.CmpLt, bitpack.CmpLe:
		return bitpack.CmpLt, 0
	default: // Ne, Gt, Ge
		return bitpack.CmpGe, 0
	}
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap, in
// residual space.
func (f *FoRArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	op, t := f.rewritePredicate(op, threshold)
	return f.resid.CmpMaskChunk(chunk, op, t)
}

// CmpMaskChunks is the residuals' range compare, the predicate rewritten
// once.
func (f *FoRArray) CmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64 {
	op, t := f.rewritePredicate(op, threshold)
	return f.resid.CmpMaskChunks(chunkLo, chunkHi, op, t, masks, and)
}
