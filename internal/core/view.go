package core

import (
	"fmt"
	"unsafe"

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
// ReduceMasked, Read, Gather) that runs under its caller's pin; the
// package-level ReduceRange, MaskRange, MaskRangeAnd, ReduceRangeMasked,
// ReadRange and Gather pin, take a View and call it. A BitPacked snapshot
// at 8, 16, 32 or 64 bits can also be read in place, with no decode,
// through its typed view (WordsAs): the 64- and 32-bit iterators,
// interop's bits-taking entry point, minivm's compiled loads and
// PageRank's rank and edge reads do. Scans fetch one View per column per
// worker per pass; Get and the range methods then cost no atomic loads. A
// View is a plain value — never cache one on the array or past its pin,
// or it keeps reading a retired representation.
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

// Word is an element type a typed view may read (WordsAs) or write
// (WriteAs) a bit-packed array as.
type Word interface {
	uint8 | uint16 | uint32 | uint64
}

// littleEndian reports whether the host stores a word's low byte first,
// which is what lets a payload packed at a width dividing 64 be read as a
// plain slice: bitpack puts element i at bits [i*w, (i+1)*w) of the
// payload, as a little-endian []uint8/[]uint16/[]uint32/[]uint64 does.
var littleEndian = func() bool {
	w := uint16(1)
	return *(*byte)(unsafe.Pointer(&w)) == 1
}()

// WordsAs returns the snapshot's elements as a plain []E, read in place
// with no decode — the paper's specialized uncompressed classes (§4.2),
// whose reads are plain loads. It reports ok only for a BitPacked
// snapshot at exactly E's width on a little-endian host; any other layout
// must be read through Get, Read or Gather. The slice is cut to the
// array's length, so an index is bounds-checked against the array, not
// against its chunk padding. Like every View read it runs under the
// caller's pin, and the slice must not be kept past it.
func WordsAs[E Word](v *View) ([]E, bool) {
	bp, ok := v.codec.(*encoding.BitPackedArray)
	if !ok || !littleEndian || bp.Bits() != wordBits[E]() {
		return nil, false
	}
	return wordsOf[E](bp.PayloadWords(), v.length), true
}

// wordBits is E's width in bits.
func wordBits[E Word]() uint { return uint(unsafe.Sizeof(E(0))) * 8 }

// wordsOf reads payload words packed at E's width as their first n
// elements, in place.
func wordsOf[E Word](payload []uint64, n uint64) []E {
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(payload))), n)
}

// WriteView is a typed write view of elements [lo, hi) of an array: the
// write twin of WordsAs, taken by WriteAs and finished by Done.
type WriteView[E Word] struct {
	// Words are the first replica's elements [lo, hi), in place: Words[i]
	// is element lo+i.
	Words []E
	// replicas are every replica's payload, the first one Words' own.
	replicas [][]uint64
	lo       uint64
}

// WriteAs opens elements [lo, hi) of a for writing as a plain []E, in
// place, from a writer on socket. It reports ok under the same rule as
// WordsAs — a BitPacked array at exactly E's width on a little-endian
// host — and refuses anything else (a re-encoded array, another width)
// without touching the array. On ok it pays what InitRange pays once per
// call: the zone index is dropped, Generation goes up by one and the
// pages of [lo, hi) are first-touched from socket, so the array ends as
// one InitRange of the range would leave it. An empty range is a no-op,
// as it is for InitRange. The caller writes every element of Words and
// then calls Done, which copies the range to the other replicas; until
// Done, readers of another replica see the old values. Concurrent
// writers follow Init's contract: ranges must not share a payload word.
// Like InitRange it takes no pin, and Words must not be kept past Done.
func WriteAs[E Word](a *SmartArray, socket int, lo, hi uint64) (WriteView[E], bool) {
	if lo > hi || hi > a.length {
		panic(fmt.Sprintf("core: range [%d,%d) out of bounds [0,%d)", lo, hi, a.length))
	}
	rp := a.rep.Load()
	if !littleEndian || a.codec.Bits() != wordBits[E]() || rp.codecs[0].Kind() != encoding.BitPacked {
		return WriteView[E]{}, false
	}
	if lo == hi {
		return WriteView[E]{}, true
	}
	rp = a.beginWrite("WriteAs")
	loWord, hiWord := a.codec.WordOf(lo), a.codec.WordOf(hi-1)+1
	rp.region.TouchRange(loWord, hiWord-loWord, socket)
	replicas := rp.region.AllReplicas()
	return WriteView[E]{Words: wordsOf[E](replicas[0], hi)[lo:], replicas: replicas, lo: lo}, true
}

// Done copies the written range from the first replica to every other
// one; on an array with one replica it does nothing.
func (w *WriteView[E]) Done() {
	if len(w.replicas) < 2 {
		return
	}
	hi := w.lo + uint64(len(w.Words))
	for _, replica := range w.replicas[1:] {
		copy(wordsOf[E](replica, hi)[w.lo:], w.Words)
	}
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
