package core

import (
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// View is a consistent read snapshot of the array's current
// representation: the payload (native packed words on the reader's
// replica, or an encoding.ChunkCodec) and the zone index that describes
// it, taken from one load of the representation pointer. A concurrent
// Reencode can therefore never pair a stale replica or stale bounds with
// the new representation's decode mid-scan — the reader finishes on the
// snapshot it loaded, which Reencode keeps valid. Values are
// representation-independent, so two workers on different snapshots
// still fold identical answers.
//
// View is the one place that asks "native words or chunk codec?": Get
// and the chunk kernels below branch on it, and every range kernel in
// reduce.go and mask.go is written once over a View taken at call entry.
// Scans that Get many elements fetch one View per worker per scan; Get
// then costs no atomic loads. A View is a plain value — never cache one
// on the array or across calls (Migrate rewrites the region in place).
type View struct {
	enc     encoding.ChunkCodec // nil means native packed words
	codec   bitpack.Codec
	replica []uint64
	length  uint64
	zones   *encoding.ZoneIndex // nil when no index is attached
}

// View snapshots the array's representation for a reader on socket.
func (a *SmartArray) View(socket int) View {
	rp := a.rep.Load()
	v := View{enc: rp.enc, codec: a.codec, length: a.length, zones: rp.zones.Load()}
	if rp.enc == nil {
		v.replica = rp.region.Replica(socket)
	}
	return v
}

// Get extracts the element at index from the snapshot.
func (v *View) Get(index uint64) uint64 {
	if index >= v.length {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", index, v.length))
	}
	if v.enc != nil {
		return v.enc.Get(index)
	}
	return v.codec.Get(v.replica, index)
}

// DecodeChunk materializes chunk's 64 elements from the snapshot into out
// — for consumers (like GroupBy) that need many values of one chunk and
// would otherwise pay a Get each. A partial tail chunk decodes its
// padding as zeros.
func (v *View) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	if v.enc != nil {
		v.enc.DecodeChunk(chunk, out)
		return
	}
	v.codec.Unpack(v.replica, chunk, out)
}

// reduceChunks folds the whole chunks [chunkLo, chunkHi) with op.
func (v *View) reduceChunks(op ReduceOp, chunkLo, chunkHi uint64) uint64 {
	if enc := v.enc; enc != nil {
		switch op {
		case ReduceSum:
			return enc.SumChunks(chunkLo, chunkHi)
		case ReduceMax:
			return enc.MaxChunks(chunkLo, chunkHi)
		default:
			return enc.MinChunks(chunkLo, chunkHi)
		}
	}
	switch op {
	case ReduceSum:
		return v.codec.SumChunks(v.replica, chunkLo, chunkHi)
	case ReduceMax:
		return v.codec.MaxChunks(v.replica, chunkLo, chunkHi)
	default:
		return v.codec.MinChunks(v.replica, chunkLo, chunkHi)
	}
}

// reduceChunksMasked folds the elements of chunks [chunkLo, chunkHi)
// selected by masks (one word per chunk) with op.
func (v *View) reduceChunksMasked(op ReduceOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	if enc := v.enc; enc != nil {
		switch op {
		case ReduceSum:
			return enc.SumChunksMasked(chunkLo, chunkHi, masks)
		case ReduceMax:
			return enc.MaxChunksMasked(chunkLo, chunkHi, masks)
		default:
			return enc.MinChunksMasked(chunkLo, chunkHi, masks)
		}
	}
	switch op {
	case ReduceSum:
		return v.codec.SumChunksMasked(v.replica, chunkLo, chunkHi, masks)
	case ReduceMax:
		return v.codec.MaxChunksMasked(v.replica, chunkLo, chunkHi, masks)
	default:
		return v.codec.MinChunksMasked(v.replica, chunkLo, chunkHi, masks)
	}
}

// countWhere counts the elements of whole chunks [chunkLo, chunkHi)
// matching "v op threshold".
func (v *View) countWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	if v.enc != nil {
		return v.enc.CountWhere(chunkLo, chunkHi, op, threshold)
	}
	return v.codec.CountWhere(v.replica, chunkLo, chunkHi, op, threshold)
}

// cmpMaskChunks evaluates the predicate over chunks [chunkLo, chunkHi)
// into masks (one word per chunk). With and set it ANDs into masks
// instead and skips chunks whose word is already dead. It returns the
// number of chunks evaluated. Native words take bitpack's range kernel in
// one call; a chunk codec is asked chunk by chunk.
func (v *View) cmpMaskChunks(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool) uint64 {
	if v.enc == nil {
		if and {
			return v.codec.CmpMaskChunksAnd(v.replica, chunkLo, chunkHi, op, threshold, masks)
		}
		v.codec.CmpMaskChunks(v.replica, chunkLo, chunkHi, op, threshold, masks)
		return chunkHi - chunkLo
	}
	var evaluated uint64
	for i := range masks[:chunkHi-chunkLo] {
		keep := ^uint64(0)
		if and {
			if keep = masks[i]; keep == 0 {
				continue
			}
		}
		masks[i] = keep & v.enc.CmpMaskChunk(chunkLo+uint64(i), op, threshold)
		evaluated++
	}
	return evaluated
}
