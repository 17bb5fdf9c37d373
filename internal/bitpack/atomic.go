package bitpack

import (
	"sync/atomic"
)

// SetAtomic is the thread-safe variant of Set that the paper sketches in
// §4.2 ("a thread-safe variant of the function can be implemented using
// atomic compare-and-swap instructions"): each affected 64-bit word is
// updated with a CAS loop, so concurrent writers to *different elements
// that share a word* cannot lose each other's bits. Writers to the same
// element still race (last CAS wins per word), as with any store.
func (c Codec) SetAtomic(data []uint64, index uint64, value uint64) {
	if !c.Fits(value) {
		c.panicUnfit(value)
	}
	casUpdate := func(word uint64, clear, set uint64) {
		addr := &data[word]
		for {
			old := atomic.LoadUint64(addr)
			if atomic.CompareAndSwapUint64(addr, old, old&^clear|set) {
				return
			}
		}
	}
	switch c.bits {
	case 64:
		atomic.StoreUint64(&data[index], value)
		return
	case 32:
		shift := (index & 1) * 32
		casUpdate(index>>1, c.mask<<shift, value<<shift)
		return
	}
	bitsPer := uint64(c.bits)
	chunk := index / ChunkSize
	chunkStart := chunk * c.wordsPerChunk
	bitInChunk := (index % ChunkSize) * bitsPer
	bitInWord := bitInChunk % 64
	word := chunkStart + bitInChunk/64
	casUpdate(word, c.mask<<bitInWord, value<<bitInWord)
	// Only CAS the second word when the element truly straddles the
	// boundary; a no-op CAS on a word the element does not occupy would
	// still contend with that word's legitimate writers (see Set).
	if bitInWord+bitsPer > 64 {
		casUpdate(word+1, c.mask>>(64-bitInWord), value>>(64-bitInWord))
	}
}
