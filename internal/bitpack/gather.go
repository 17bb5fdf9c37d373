// Batched random-access kernel: gather over packed words.
//
// The graph-analytics hot paths (PageRank's rank/degree lookups, BFS's
// begin-array probes) are index-vector gathers: decode the elements named
// by an index vector, not a contiguous run. Going through Codec.Get per
// index repeats the width dispatch, the mask load, and — at the call sites
// that matter — a bounds check per element. The kernel here amortizes all
// of that across the vector: one dispatch on the width, the codec fields
// in registers, and a tight per-index loop that is just Function 1's
// address arithmetic. Widths 32 and 64 take dedicated fast paths that skip
// shifting and masking, mirroring the paper's specialized classes.
//
// Contiguous runs need no kernel of their own: they decode whole chunks
// through Unpack (core's View.Read).

package bitpack

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
