package core

import (
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// View is a consistent read snapshot of the array for a reader on one
// socket: the codec bound to that socket's replica, and the zone index
// that describes it, taken from one load of the representation pointer.
// A concurrent Reencode or Migrate can therefore never pair a stale
// payload or stale bounds with the new representation mid-scan — the
// reader finishes on the snapshot it loaded. Values are
// representation-independent, so two workers on different snapshots
// still fold identical answers.
//
// What keeps a snapshot readable after a swap retires it is a reader pin
// (memsim.Memory.Pin), not the GC: the payload is native memory, and a
// retired region is unmapped once no pin is held. Every parallel loop
// holds one, and so does every package-level range kernel for its call; a
// View taken outside both must be read under the caller's own pin
// (a.Memory().Pin()), or it may fault once the array is re-encoded,
// migrated or freed.
//
// Every range kernel is written once, as a View method (Reduce, Mask,
// ReduceMasked) that runs under its caller's pin; the package-level
// ReduceRange, MaskRange, MaskRangeAnd and ReduceRangeMasked pin, take a
// View and call it. Scans fetch one View per column per worker per pass;
// Get and the range methods then cost no atomic loads. A View is a plain
// value — never cache one on the array or past its pin, or it keeps
// reading a retired representation.
type View struct {
	codec  encoding.ChunkCodec
	length uint64
	zones  *encoding.ZoneIndex // nil when no index is attached
}

// View snapshots the array's representation for a reader on socket.
func (a *SmartArray) View(socket int) View {
	rp := a.rep.Load()
	return View{codec: rp.codec(socket), length: a.length, zones: rp.zones.Load()}
}

// Get extracts the element at index from the snapshot.
func (v *View) Get(index uint64) uint64 {
	if index >= v.length {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", index, v.length))
	}
	return v.codec.Get(index)
}

// DecodeChunk materializes chunk's 64 elements from the snapshot into out
// — for consumers (like GroupBy) that need many values of one chunk and
// would otherwise pay a Get each. A partial tail chunk's padding is
// unspecified.
func (v *View) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	v.codec.DecodeChunk(chunk, out)
}

// Packed returns the snapshot's payload words and width when its layout
// is BitPacked — what a width-specialised reader (U64Iterator, interop's
// bits-taking entry point, minivm's compiled loads) may index directly.
// Any other layout reports ok false and must be read through Get.
func (v *View) Packed() (words []uint64, bits uint, ok bool) {
	if bp, isBP := v.codec.(*encoding.BitPackedArray); isBP {
		return bp.PayloadWords(), bp.Bits(), true
	}
	return nil, 0, false
}

// reduceChunks folds the whole chunks [chunkLo, chunkHi) with op.
func (v *View) reduceChunks(op ReduceOp, chunkLo, chunkHi uint64) uint64 {
	switch op {
	case ReduceSum:
		return v.codec.SumChunks(chunkLo, chunkHi)
	case ReduceMax:
		return v.codec.MaxChunks(chunkLo, chunkHi)
	default:
		return v.codec.MinChunks(chunkLo, chunkHi)
	}
}

// reduceChunksMasked folds the elements of chunks [chunkLo, chunkHi)
// selected by masks (one word per chunk) with op.
func (v *View) reduceChunksMasked(op ReduceOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	switch op {
	case ReduceSum:
		return v.codec.SumChunksMasked(chunkLo, chunkHi, masks)
	case ReduceMax:
		return v.codec.MaxChunksMasked(chunkLo, chunkHi, masks)
	default:
		return v.codec.MinChunksMasked(chunkLo, chunkHi, masks)
	}
}
