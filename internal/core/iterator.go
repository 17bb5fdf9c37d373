package core

import (
	"smartarrays/internal/bitpack"
)

// Iterator is the paper's SmartArrayIterator (§4.3): a forward iterator
// that hides replica selection and chunk unpacking behind Get/Next/Reset.
//
// The paper avoids virtual dispatch by letting GraalVM profile the bit
// width and inline the concrete subclass. In Go the equivalent is to type
// assert to the concrete iterator (U64Iterator, U32Iterator,
// CompressedIterator) in hot loops — the benchmark harness does exactly
// that — while this interface provides the uniform API.
type Iterator interface {
	// Next advances to the next element.
	Next()
	// Get returns the element at the current position.
	Get() uint64
	// Reset repositions the iterator at index.
	Reset(index uint64)
}

// NewIterator allocates an iterator over a starting at index for a reader
// on the given socket (paper: SmartArrayIterator::allocate, which picks
// the replica via getReplica and the concrete subclass via the bit
// count). The 64- and 32-bit iterators index the words directly, so they
// are picked only when the bound layout is BitPacked at that width. Like a
// View, an iterator used outside a parallel loop is read under a pin on
// a.Memory().
func NewIterator(a *SmartArray, socket int, index uint64) Iterator {
	v := a.View(socket)
	var it Iterator
	switch words, bits, packed := v.Packed(); {
	case packed && bits == 64:
		it = &U64Iterator{data: words}
	case packed && bits == 32:
		it = &U32Iterator{data: words}
	default:
		it = &CompressedIterator{view: v}
	}
	it.Reset(index)
	return it
}

// U64Iterator is the specialized uncompressed 64-bit iterator: compiled
// code "simply increases a pointer at every iteration" (§4.3).
type U64Iterator struct {
	data  []uint64
	index uint64
}

// Next advances to the next element.
func (it *U64Iterator) Next() { it.index++ }

// Get returns the current element.
func (it *U64Iterator) Get() uint64 { return it.data[it.index] }

// Reset repositions the iterator.
func (it *U64Iterator) Reset(index uint64) { it.index = index }

// U32Iterator is the specialized uncompressed 32-bit iterator: two
// elements per word, extracted with a shift and mask but no chunk buffer.
type U32Iterator struct {
	data  []uint64
	index uint64
}

// Next advances to the next element.
func (it *U32Iterator) Next() { it.index++ }

// Get returns the current element.
func (it *U32Iterator) Get() uint64 {
	w := it.data[it.index>>1]
	return (w >> ((it.index & 1) * 32)) & 0xFFFFFFFF
}

// Reset repositions the iterator.
func (it *U32Iterator) Reset(index uint64) { it.index = index }

// CompressedIterator handles every other layout: it keeps a 64-element
// buffer and refills it with the codec's chunk decode (unpack() for bit
// packing) whenever the position crosses into a new chunk (paper Figure 9:
// CompressedIterator with data[64] and dataIndex).
type CompressedIterator struct {
	view View
	buf  [bitpack.ChunkSize]uint64
	// chunk is the currently buffered chunk index; dataIndex the position
	// within it.
	chunk     uint64
	dataIndex uint32
	loaded    bool
}

// Next advances to the next element, unpacking the next chunk when the
// position crosses a chunk boundary.
func (it *CompressedIterator) Next() {
	it.dataIndex++
	if it.dataIndex == bitpack.ChunkSize {
		it.dataIndex = 0
		it.chunk++
		it.loaded = false
	}
}

// Get returns the current element from the chunk buffer, unpacking lazily
// so that an iterator positioned at a range end never decodes a chunk it
// will not read (important for the last, possibly partial, chunk).
func (it *CompressedIterator) Get() uint64 {
	if !it.loaded {
		it.view.DecodeChunk(it.chunk, &it.buf)
		it.loaded = true
	}
	return it.buf[it.dataIndex]
}

// Reset repositions the iterator at index.
func (it *CompressedIterator) Reset(index uint64) {
	chunk := index / bitpack.ChunkSize
	it.dataIndex = uint32(index % bitpack.ChunkSize)
	if !it.loaded || chunk != it.chunk {
		it.chunk = chunk
		it.loaded = false
	}
}

// SumRangeIter is the iterator transcription of Function 4: allocate an
// iterator at lo, then get/next to hi. It dispatches once on the concrete
// iterator type so the per-element loop is free of interface calls — the
// Go analogue of GraalVM profiling the bit width and inlining the subclass
// (§4.3). It is the reference the fused ReduceRange(…, ReduceSum) is
// checked against.
func SumRangeIter(a *SmartArray, socket int, lo, hi uint64) uint64 {
	if lo >= hi {
		return 0
	}
	var sum uint64
	a.mem.Pin()
	defer a.mem.Unpin()
	switch it := NewIterator(a, socket, lo).(type) {
	case *U64Iterator:
		for i := lo; i < hi; i++ {
			sum += it.Get()
			it.Next()
		}
	case *U32Iterator:
		for i := lo; i < hi; i++ {
			sum += it.Get()
			it.Next()
		}
	case *CompressedIterator:
		for i := lo; i < hi; i++ {
			sum += it.Get()
			it.Next()
		}
	default:
		for i := lo; i < hi; i++ {
			sum += it.Get()
			it.Next()
		}
	}
	return sum
}

// Map applies fn to every element of [lo, hi) for a reader on socket,
// decoding whole chunks at once. This is the §7 "alternative unified API"
// (bounded map with a lambda) that removes the iterator's per-element
// chunk-boundary branch.
func Map(a *SmartArray, socket int, lo, hi uint64, fn func(index, value uint64)) {
	if lo >= hi {
		return
	}
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	var buf [bitpack.ChunkSize]uint64
	for i := lo; i < hi; {
		chunk := i / bitpack.ChunkSize
		v.DecodeChunk(chunk, &buf)
		for end := min((chunk+1)*bitpack.ChunkSize, hi); i < end; i++ {
			fn(i, buf[i%bitpack.ChunkSize])
		}
	}
}
