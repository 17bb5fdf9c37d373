// Batched random-access kernels: gather and streaming range decode over
// packed words.
//
// The graph-analytics hot paths (PageRank's rank/degree lookups, BFS's
// begin-array probes) are index-vector gathers: decode the elements named
// by an index vector, not a contiguous run. Going through Codec.Get per
// index repeats the width dispatch, the mask load, and — at the call sites
// that matter — a bounds check per element. The kernels here amortize all
// of that across the vector: one dispatch on the width, the codec fields
// in registers, and a tight per-index loop that is just Function 1's
// address arithmetic.
//
// UnpackRange is the streaming complement: decode a [lo, hi) run through a
// caller-provided buffer, chunk-at-a-time in the interior, so consumers
// (CSR edge traversal) get long decoded slices without per-element offset
// math or the iterator's per-element chunk-boundary branch.
//
// As everywhere in this package, widths 32 and 64 take dedicated fast
// paths that skip shifting and masking, mirroring the paper's specialized
// classes. UnpackRange has only the 64-bit one: it emits sub-slices of the
// packed words themselves (a 64-bit element *is* its word), making the
// stream zero-copy. At 32 bits the fast path is Unpack's whole-chunk word
// split: a per-element loop measured no faster than the 17-bit word walk.

package bitpack

import "fmt"

// Gather decodes out[i] = element idx[i] from the packed words, for every
// index in the vector. Indices may be in any order and may repeat; callers
// are responsible for them being in range (the element math indexes data
// directly). len(out) must be at least len(idx).
func (c Codec) Gather(data []uint64, idx []uint64, out []uint64) {
	_ = out[:len(idx)] // one bounds check up front, none in the loops
	switch c.bits {
	case 64:
		for i, x := range idx {
			out[i] = data[x]
		}
		return
	case 32:
		for i, x := range idx {
			w := data[x>>1]
			out[i] = (w >> ((x & 1) * 32)) & 0xFFFFFFFF
		}
		return
	}
	bitsPer := uint64(c.bits)
	wpc := c.wordsPerChunk
	mask := c.mask
	for i, x := range idx {
		bitInChunk := (x % ChunkSize) * bitsPer
		bitInWord := bitInChunk % 64
		word := (x/ChunkSize)*wpc + bitInChunk/64
		if bitInWord+bitsPer <= 64 {
			out[i] = (data[word] >> bitInWord) & mask
		} else {
			out[i] = ((data[word] >> bitInWord) | (data[word+1] << (64 - bitInWord))) & mask
		}
	}
}

// UnpackRange decodes elements [lo, hi) in index order, invoking emit with
// decoded runs: emit(base, vals) delivers elements base, base+1, ...,
// base+len(vals)-1. Runs never exceed len(buf) elements, so callers can
// size companion buffers (gather outputs, weight streams) off the buffer
// they pass. buf must hold at least one chunk (ChunkSize elements).
//
// A 64-bit element is its word, so 64-bit runs are sub-slices of the
// packed words themselves. Every other width — 32 bits included — decodes
// whole chunks through Unpack (at 32 bits, each word split into its low and
// high half), with no per-element index or shift arithmetic. vals is only
// valid during the emit call and may alias either buf or data; consumers
// must not retain or mutate it.
func (c Codec) UnpackRange(data []uint64, lo, hi uint64, buf []uint64, emit func(base uint64, vals []uint64)) {
	if lo >= hi {
		return
	}
	if len(buf) < ChunkSize {
		panic(fmt.Sprintf("bitpack: UnpackRange buffer holds %d elements, need at least %d", len(buf), ChunkSize))
	}
	if c.bits == 64 {
		step := uint64(len(buf))
		for p := lo; p < hi; p += step {
			end := p + step
			if end > hi {
				end = hi
			}
			emit(p, data[p:end])
		}
		return
	}

	p := lo
	// Ragged head: decode the first, partially covered chunk through the
	// front of buf and emit only the in-range elements.
	if off := p % ChunkSize; off != 0 {
		c.Unpack(data, p/ChunkSize, (*[ChunkSize]uint64)(buf[:ChunkSize]))
		n := ChunkSize - off
		if p+n > hi {
			n = hi - p
		}
		emit(p, buf[off:off+n])
		p += n
	}
	// Interior and tail: fill buf with whole decoded chunks (the layout
	// rounds storage up to whole chunks, so decoding past hi's chunk end
	// stays in bounds) and emit the covered prefix.
	chunksPerFill := uint64(len(buf)) / ChunkSize
	for p < hi {
		base := p
		var filled uint64
		for k := uint64(0); k < chunksPerFill && p < hi; k++ {
			c.Unpack(data, p/ChunkSize, (*[ChunkSize]uint64)(buf[k*ChunkSize:(k+1)*ChunkSize]))
			take := uint64(ChunkSize)
			if p+take > hi {
				take = hi - p
			}
			p += take
			filled += take
		}
		emit(base, buf[:filled])
	}
}
