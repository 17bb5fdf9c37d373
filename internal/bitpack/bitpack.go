// Package bitpack implements the paper's bit compression scheme (§4.2).
//
// Bit compression stores unsigned integers using BITS ∈ [1,64] bits each,
// packed consecutively across 64-bit words. Elements are logically grouped
// into chunks of 64 numbers: a chunk of 64 elements at BITS bits occupies
// exactly BITS 64-bit words, so chunk boundaries are always word-aligned
// regardless of BITS. That alignment is what lets the same get/init/unpack
// logic run unchanged for every width (paper §4.2).
//
// The kernels mirror the paper's pseudo code:
//
//	Codec.Get    — Function 1 (BitCompressedArray::get)
//	Codec.Set    — Function 2 (BitCompressedArray::init), single replica
//	Codec.Pack   — Function 2 for a whole chunk (the mirror of Unpack)
//	Codec.Unpack — Function 3 (BitCompressedArray::unpack)
//
// The paper specializes BITS = 32 and BITS = 64 into dedicated classes that
// skip shifting and masking; here those specializations are fast paths
// inside the same methods plus dedicated helpers used by the iterators.
// Unpack decodes what Function 3 decodes without its per-element branch:
// widths dividing 64 shift whole words apart, and every other (straddling)
// width walks the chunk's words once, finishing the field a word boundary
// cut from the bits carried over it.
package bitpack

import (
	"fmt"
	"math/bits"
)

// ChunkSize is the number of elements per logical chunk. With 64 elements
// per chunk and b bits per element a chunk spans exactly b words, keeping
// chunk starts word-aligned for every b in [1,64].
const ChunkSize = 64

// Codec packs and unpacks fixed-width unsigned integers. The zero value is
// not usable; construct with New.
type Codec struct {
	bits          uint
	mask          uint64
	wordsPerChunk uint64
}

// New returns a codec for the given element width in bits.
func New(bitsPerElem uint) (Codec, error) {
	if bitsPerElem < 1 || bitsPerElem > 64 {
		return Codec{}, fmt.Errorf("bitpack: bits must be in [1,64], got %d", bitsPerElem)
	}
	return Codec{
		bits:          bitsPerElem,
		mask:          maskFor(bitsPerElem),
		wordsPerChunk: uint64(bitsPerElem),
	}, nil
}

// MustNew is New but panics on an invalid width; for use with constants.
func MustNew(bitsPerElem uint) Codec {
	c, err := New(bitsPerElem)
	if err != nil {
		panic(err)
	}
	return c
}

func maskFor(b uint) uint64 {
	if b == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << b) - 1
}

// Bits returns the element width in bits.
func (c Codec) Bits() uint { return c.bits }

// Mask returns the value mask (BITS low bits set).
func (c Codec) Mask() uint64 { return c.mask }

// MaxValue is the largest value representable at this width.
func (c Codec) MaxValue() uint64 { return c.mask }

// WordsPerChunk is the number of 64-bit words a 64-element chunk occupies.
func (c Codec) WordsPerChunk() uint64 { return c.wordsPerChunk }

// WordsFor returns the number of 64-bit words needed to store n elements,
// rounding up to whole chunks as the paper's layout does.
func (c Codec) WordsFor(n uint64) uint64 {
	chunks := (n + ChunkSize - 1) / ChunkSize
	return chunks * c.wordsPerChunk
}

// CompressedBytes is the storage footprint of n elements in bytes.
func (c Codec) CompressedBytes(n uint64) uint64 { return c.WordsFor(n) * 8 }

// WordOf returns the index of the word holding element index's first bit —
// the exact element-to-word map page placement and traffic accounting use.
func (c Codec) WordOf(index uint64) uint64 {
	return index/ChunkSize*c.wordsPerChunk + index%ChunkSize*uint64(c.bits)/64
}

// Fits reports whether v is representable at this width.
func (c Codec) Fits(v uint64) bool { return v&^c.mask == 0 }

// panicUnfit is the one overflow report of the write kernels (Set,
// SetAtomic, Pack).
func (c Codec) panicUnfit(v uint64) {
	panic(fmt.Sprintf("bitpack: value %#x does not fit in %d bits", v, c.bits))
}

// Get extracts element index from the packed words. It is a direct
// transcription of the paper's Function 1.
func (c Codec) Get(data []uint64, index uint64) uint64 {
	switch c.bits {
	case 64:
		return data[index]
	case 32:
		w := data[index>>1]
		return (w >> ((index & 1) * 32)) & c.mask
	}
	bitsPer := uint64(c.bits)
	chunk := index / ChunkSize                  // F1 line 1
	chunkStart := chunk * c.wordsPerChunk       // F1 lines 2-3
	bitInChunk := (index % ChunkSize) * bitsPer // F1 line 4
	bitInWord := bitInChunk % 64                // F1 line 5
	word := chunkStart + bitInChunk/64          // F1 line 6
	if bitInWord+bitsPer <= 64 {                // F1 line 8
		return (data[word] >> bitInWord) & c.mask // F1 line 9
	}
	// Element straddles two words.                  F1 lines 10-11
	return ((data[word] >> bitInWord) | (data[word+1] << (64 - bitInWord))) & c.mask
}

// Set writes value at element index in the packed words. It transcribes the
// paper's Function 2 for a single replica; callers with replicas loop over
// them (as SmartArray.Init does). Set panics if value does not fit, making
// width overflows loud during initialization rather than silently corrupting
// neighbouring elements.
func (c Codec) Set(data []uint64, index uint64, value uint64) {
	if !c.Fits(value) {
		c.panicUnfit(value)
	}
	switch c.bits {
	case 64:
		data[index] = value
		return
	case 32:
		w := &data[index>>1]
		shift := (index & 1) * 32
		*w = *w&^(c.mask<<shift) | value<<shift
		return
	}
	bitsPer := uint64(c.bits)
	chunk := index / ChunkSize
	chunkStart := chunk * c.wordsPerChunk
	bitInChunk := (index % ChunkSize) * bitsPer
	bitInWord := bitInChunk % 64
	word := chunkStart + bitInChunk/64
	// F2 line 4: clear the slot then or in the low part of the value.
	data[word] = data[word]&^(c.mask<<bitInWord) | value<<bitInWord
	// F2 lines 5-6: the spill-over part in the next word. The element only
	// occupies a second word when it truly straddles the boundary; an element
	// that *ends exactly on* a word boundary must not touch the next word —
	// a read-modify-write there, even a no-op one, races with a concurrent
	// writer that legitimately owns that word (disjoint-range parallel Init).
	if bitInWord+bitsPer > 64 {
		data[word+1] = data[word+1]&^(c.mask>>(64-bitInWord)) | value>>(64-bitInWord)
	}
}

// Unpack decodes one whole chunk (64 elements) into out. It is the paper's
// Function 3, which exists because scans are the dominant operation in
// analytics and amortizing the decode across a chunk removes per-element
// branching. Function 3 still branches per element on where the field
// sits in its word; here no width does. Widths 32 and 64 are word copies
// and shifts, widths 1–16 dividing 64 shift four fields out of a word at a
// time, and every straddling width goes through unpackWalk, which makes
// that decision once per word. It reads only the chunk's own words.
// A BitPacked array's DecodeChunk (so core's View.Read, and every range
// read above it) decodes through it.
func (c Codec) Unpack(data []uint64, chunk uint64, out *[ChunkSize]uint64) {
	switch c.bits {
	case 64:
		copy(out[:], data[chunk*ChunkSize:chunk*ChunkSize+ChunkSize])
		return
	case 32:
		base := chunk * 32
		for i := 0; i < 32; i++ {
			w := data[base+uint64(i)]
			out[2*i] = w & 0xFFFFFFFF
			out[2*i+1] = w >> 32
		}
		return
	case 1, 2, 4, 8, 16:
		// The fields tile the words and no element straddles. One inlined
		// copy of the loop per width makes its shifts constants.
		words := data[chunk*c.wordsPerChunk : (chunk+1)*c.wordsPerChunk]
		switch c.bits {
		case 1:
			unpackTiled(words, out, 1, c.mask)
		case 2:
			unpackTiled(words, out, 2, c.mask)
		case 4:
			unpackTiled(words, out, 4, c.mask)
		case 8:
			unpackTiled(words, out, 8, c.mask)
		default:
			unpackTiled(words, out, 16, c.mask)
		}
		return
	}
	unpackWalk(data[chunk*c.wordsPerChunk:(chunk+1)*c.wordsPerChunk], out, c.bits, c.mask)
}

// unpackWalk decodes a chunk at a straddling width — one that does not
// divide 64 — in one pass over its words. It computes what Function 3
// computes, with the per-element three-way branch (field inside the word,
// ending on its boundary, crossing it) moved to the word: each word first
// finishes the field the previous word began, from the carried bits, then
// shifts out every field that lies wholly inside it, and carries what is
// left. Only the chunk's own words are read.
func unpackWalk(words []uint64, out *[ChunkSize]uint64, width uint, mask uint64) {
	var carry uint64 // the low bits of a field begun in the previous word
	var have uint    // how many; 0 when that word ended on a field boundary
	i := 0
	for _, w := range words {
		pos := uint(0) // the next field's first bit in w
		if have != 0 {
			out[i] = (carry | w<<(have&63)) & mask
			i++
			pos = width - have
		}
		for ; pos+width <= 64; pos += width {
			out[i] = w >> (pos & 63) & mask
			i++
		}
		carry, have = w>>(pos&63), 64-pos
	}
}

// unpackTiled decodes a chunk whose width divides 64 (and is at most 16,
// so a word holds a multiple of four fields): every word is shifted out
// four fields at a time.
func unpackTiled(words []uint64, out *[ChunkSize]uint64, width uint, mask uint64) {
	o := out[:]
	for _, w := range words {
		for k := uint(0); k < 64; k += 4 * width {
			o[3] = w >> (3 * width) & mask
			o[0], o[1], o[2] = w&mask, w>>width&mask, w>>(2*width)&mask
			w >>= 4 * width
			o = o[4:]
		}
	}
}

// Pack encodes whole chunks from in into data, the first at chunk — the
// mirror of Unpack and the batch form of Function 2; len(in) must be a
// multiple of ChunkSize. At 64 bits the run is one copy. Below it, each
// chunk's BITS words are assembled in a register and stored once: the
// destination words are never read, so a writer that owns the chunks
// touches nothing else. The value-fits check is one OR-reduction per
// chunk; on overflow Pack panics with Set's message for the first
// offending value, before writing that chunk.
func (c Codec) Pack(data []uint64, chunk uint64, in []uint64) {
	if len(in)%ChunkSize != 0 {
		panic(fmt.Sprintf("bitpack: Pack over %d elements, not a whole number of chunks", len(in)))
	}
	if c.bits == 64 {
		copy(data[chunk*ChunkSize:chunk*ChunkSize+uint64(len(in))], in)
		return
	}
	for ; len(in) > 0; in, chunk = in[ChunkSize:], chunk+1 {
		c.packChunk(data[chunk*c.wordsPerChunk:(chunk+1)*c.wordsPerChunk], (*[ChunkSize]uint64)(in))
	}
}

// packChunk packs one chunk of in into its words out, below 64 bits.
func (c Codec) packChunk(out []uint64, in *[ChunkSize]uint64) {
	var or uint64
	for _, v := range in {
		or |= v
	}
	if !c.Fits(or) {
		for _, v := range in {
			if !c.Fits(v) {
				c.panicUnfit(v)
			}
		}
	}
	if c.bits == 32 {
		for i := range out {
			out[i] = in[2*i] | in[2*i+1]<<32
		}
		return
	}
	bitsPer := c.bits
	var acc uint64 // the word being assembled
	var fill uint  // bits of acc already occupied
	word := 0
	for _, v := range in {
		acc |= v << (fill & 63)
		fill += bitsPer
		if fill >= 64 {
			out[word] = acc
			word++
			fill -= 64
			// The part of v that did not fit in the stored word (none when
			// v ended exactly on the boundary: v >> bitsPer is 0).
			acc = v >> ((bitsPer - fill) & 63)
		}
	}
}

// PackSlice compresses src into a freshly allocated packed buffer. A
// ragged tail is packed as a zero-padded chunk: the buffer is sized in
// whole chunks and the padding elements belong to nobody.
func (c Codec) PackSlice(src []uint64) []uint64 {
	data := make([]uint64, c.WordsFor(uint64(len(src))))
	whole := len(src) / ChunkSize
	c.Pack(data, 0, src[:whole*ChunkSize])
	if tail := src[whole*ChunkSize:]; len(tail) > 0 {
		var buf [ChunkSize]uint64
		copy(buf[:], tail)
		c.Pack(data, uint64(whole), buf[:])
	}
	return data
}

// MinBits returns the minimum width able to represent maxValue, with a
// floor of 1 bit (an all-zeros array still needs one bit per element).
// This is the paper's rule: "the number of bits used per element is the
// minimum number of bits required to store the largest element".
func MinBits(maxValue uint64) uint {
	if maxValue == 0 {
		return 1
	}
	return uint(bits.Len64(maxValue))
}

// MinBitsFor scans values and returns the minimum width for the slice.
func MinBitsFor(values []uint64) uint {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	return MinBits(max)
}
