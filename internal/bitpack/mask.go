// Selection-bitmap kernels: predicate evaluation over packed words that
// emits 64-bit match masks, plus masked folds that consume them.
//
// A chunk of 64 elements maps exactly onto one 64-bit mask word, and the
// kernels here work on packed *words*, not elements. For a width that
// divides 64 a word holds 64/width whole fields, so "v == t" and "v < t"
// are evaluated on all of them at once with carry-out arithmetic
// (cmpChunkWords) and the per-field result bits are gathered into the
// mask; the masked sum mirrors it (mask bits expanded to field masks,
// AND, lane sum). Every other width has fields that straddle words and
// takes one generic extract loop with a branch-free compare
// (cmpChunkGeneric). Both serve the range entry points
// (CmpMaskChunks/CmpMaskChunksAnd) and the single-chunk CmpMaskChunk
// alike, behind one canonicalisation (planCmp). Downstream, masks from
// several predicate columns AND together word-at-a-time, dead words
// short-circuit whole chunks, and the masked folds touch only surviving
// chunks (sparse masks iterate set bits, everything else is a whole-chunk
// pass).
//
// All mask kernels operate on whole chunks; callers (core.MaskRange) clear
// the boundary bits of ragged range heads and tails. Reading a whole chunk
// is always in bounds: the packed layout rounds allocations up to whole
// chunks (Codec.WordsFor), so the padding elements of a final partial
// chunk decode as zeros.

package bitpack

import "math/bits"

// planCmp canonicalises the six operators onto the two data kernels
// (eq: v == t, otherwise v < t) plus a complement: Le/Gt shift the
// threshold by one, Ne/Ge/Gt flip the kernel's mask. A threshold outside
// the width's value range makes the outcome constant — every mask is flip
// and the data is never read.
func (c Codec) planCmp(op Cmp, threshold uint64) (eq bool, t, flip uint64, constant bool) {
	if op == CmpNe || op == CmpGe || op == CmpGt {
		flip = ^uint64(0)
	}
	switch op {
	case CmpEq, CmpNe:
		return true, threshold, flip, !c.Fits(threshold)
	case CmpLt, CmpGe:
		if threshold > c.mask {
			return false, 0, ^flip, true // every v < t
		}
		return false, threshold, flip, threshold == 0 // no v < 0
	default: // CmpLe, CmpGt: v <= t  ⇔  v < t+1
		if threshold >= c.mask {
			return false, 0, ^flip, true
		}
		return false, threshold + 1, flip, false
	}
}

// CmpMaskChunk evaluates "element op threshold" for all 64 elements of
// chunk and returns the match mask: bit i is set iff element
// chunk*ChunkSize+i satisfies the predicate. Each packed word is read
// exactly once. The threshold may exceed the width's value range; the
// constant outcomes that implies are resolved without touching the data.
func (c Codec) CmpMaskChunk(data []uint64, chunk uint64, op Cmp, threshold uint64) uint64 {
	eq, t, flip, constant := c.planCmp(op, threshold)
	if constant {
		return flip
	}
	words := data[chunk*c.wordsPerChunk : (chunk+1)*c.wordsPerChunk]
	if c.wordParallel() {
		return flip ^ cmpChunkWords(words, c.bits, eq, t)
	}
	return flip ^ cmpChunkGeneric(words, c.bits, eq, t)
}

// wordParallel reports whether the width divides 64 (the powers of two):
// the fields tile the words and the whole-word kernels apply.
func (c Codec) wordParallel() bool { return c.bits&(c.bits-1) == 0 }

// CmpMaskChunks fills masks[ch-chunkLo] with the match mask of every chunk
// ch in [chunkLo, chunkHi): the predicate is canonicalised and the codec's
// fields resolved once for the whole range, not once per chunk.
func (c Codec) CmpMaskChunks(data []uint64, chunkLo, chunkHi uint64, op Cmp, threshold uint64, masks []uint64) {
	c.cmpMaskChunks(data, chunkLo, chunkHi, op, threshold, masks, false)
}

// CmpMaskChunksAnd ANDs the chunks' match masks into masks (the running
// conjunction of earlier predicates), skipping every chunk whose word is
// already dead, and returns the number of chunks it evaluated.
func (c Codec) CmpMaskChunksAnd(data []uint64, chunkLo, chunkHi uint64, op Cmp, threshold uint64, masks []uint64) uint64 {
	return c.cmpMaskChunks(data, chunkLo, chunkHi, op, threshold, masks, true)
}

func (c Codec) cmpMaskChunks(data []uint64, chunkLo, chunkHi uint64, op Cmp, threshold uint64, masks []uint64, and bool) (evaluated uint64) {
	if chunkLo >= chunkHi {
		return 0
	}
	masks = masks[:chunkHi-chunkLo]
	eq, t, flip, constant := c.planCmp(op, threshold)
	wpc := c.wordsPerChunk
	words := data[chunkLo*wpc : chunkHi*wpc]
	wordParallel := c.wordParallel()
	for i := range masks {
		keep := ^uint64(0)
		if and {
			if keep = masks[i]; keep == 0 {
				continue
			}
		}
		evaluated++
		m := flip
		if !constant {
			chunk := words[uint64(i)*wpc : uint64(i+1)*wpc]
			if wordParallel {
				m ^= cmpChunkWords(chunk, c.bits, eq, t)
			} else {
				m ^= cmpChunkGeneric(chunk, c.bits, eq, t)
			}
		}
		masks[i] = m & keep
	}
	return evaluated
}

// cmpChunkWords is the whole-word compare for widths that divide 64: each
// of the chunk's words holds f = 64/width fields, all compared against the
// broadcast threshold at once (fieldMatch), which leaves one result bit
// at the top of each field. Shifted to the bottom, the f of them compact
// into the next f bits of the chunk mask with one multiply where its
// partial products cannot collide (width >= 8: bit k*width times
// 2^(64-f-(width-1)k) lands on bit 64-f+k, every other product on a
// distinct bit elsewhere) and with a shift ladder for widths 2 and 4;
// widths 1 and 64 are already compact. One loop per width keeps every
// shift and multiplier a constant.
func cmpChunkWords(words []uint64, width uint, eq bool, threshold uint64) (m uint64) {
	low := fieldLow[bits.TrailingZeros(width)&7]
	H, y := low<<(width-1&63), threshold*low
	switch width {
	case 1:
		m = fieldMatch(words[0], y, H, eq)
	case 2:
		for j, x := range words[:2] {
			m |= gather2(fieldMatch(x, y, H, eq)>>1) << (32 * uint(j))
		}
	case 4:
		for j, x := range words[:4] {
			m |= gather4(fieldMatch(x, y, H, eq)>>3) << (16 * uint(j))
		}
	case 8:
		for j, x := range words[:8] {
			m |= fieldMatch(x, y, H, eq) >> 7 * 0x0102040810204080 >> 56 << (8 * uint(j))
		}
	case 16:
		for j, x := range words[:16] {
			m |= fieldMatch(x, y, H, eq) >> 15 * 0x1000200040008000 >> 60 << (4 * uint(j))
		}
	case 32:
		for j, x := range words[:32] {
			m |= fieldMatch(x, y, H, eq) >> 31 * 0x4000000080000000 >> 62 << (2 * uint(j))
		}
	default: // 64: one field per word
		a, b := borrowOperands(eq, threshold)
		for _, x := range words[:64] {
			_, match := bits.Sub64(x^a, b, 0)
			m = m>>1 | match<<63
		}
	}
	return m
}

// fieldLow, indexed by log2(width), has bit 0 of every field set.
var fieldLow = [8]uint64{^uint64(0), 0x5555555555555555, 0x1111111111111111,
	0x0101010101010101, 0x0001000100010001, 0x0000000100000001, 1}

// fieldMatch compares every field of x with the same field of y and sets
// the field's top bit (H has exactly those bits set) where it matches:
//
//	v <  t:  z = (x|H) - (y&^H) keeps every field's subtraction inside the
//	         field (bit H of z is set iff x's low bits >= y's), so
//	         lt = ((^x&y) | (^(x^y)&^z)) & H — top bits decide, low bits
//	         break a tie;
//	v == t:  d = x^y, and ((d&^H) + ^H) | d has H set iff the field of d is
//	         nonzero.
func fieldMatch(x, y, H uint64, eq bool) uint64 {
	if eq {
		d := x ^ y
		return ^(((d &^ H) + ^H) | d) & H
	}
	z := (x | H) - (y &^ H)
	return ((^x & y) | (^(x ^ y) & ^z)) & H
}

// gather2 and gather4 compact every second / fourth bit of r into the low
// 32 / 16 bits, doubling the group size per step.
func gather2(r uint64) uint64 {
	r = (r | r>>1) & 0x3333333333333333
	r = (r | r>>2) & 0x0F0F0F0F0F0F0F0F
	r = (r | r>>4) & 0x00FF00FF00FF00FF
	r = (r | r>>8) & 0x0000FFFF0000FFFF
	return (r | r>>16) & 0xFFFFFFFF
}

func gather4(r uint64) uint64 {
	r = (r | r>>3) & 0x0303030303030303
	r = (r | r>>6) & 0x000F000F000F000F
	r = (r | r>>12) & 0x000000FF000000FF
	return (r | r>>24) & 0xFFFF
}

// fieldAt extracts the field of mask's width that starts at bit off of
// word w, for widths whose fields straddle words: always from two
// adjacent words and without a branch — a field that does not straddle
// takes nothing from the second word (its bits land above the mask; a
// shift by 64 is zero). buf is a fixed-size copy of the chunk's words, so
// both indexes are provably in range and the word after the chunk's last
// is never read from the payload.
func fieldAt(buf *[ChunkSize]uint64, w, off, mask uint64) uint64 {
	return (buf[w&63]>>(off&63) | buf[(w+1)&63]<<1<<(^off&63)) & mask
}

// cmpChunkGeneric is the compare for every other width: one fieldAt per
// element, then the borrow compare.
func cmpChunkGeneric(words []uint64, width uint, eq bool, threshold uint64) uint64 {
	bitsPer, mask := uint64(width), maskFor(width)
	var buf [ChunkSize]uint64
	copy(buf[:], words[:bitsPer])
	a, b := borrowOperands(eq, threshold)
	var m uint64
	w, off := uint64(0), uint64(0)
	for i := 0; i < ChunkSize; i++ {
		_, match := bits.Sub64(fieldAt(&buf, w, off, mask)^a, b, 0)
		m = m>>1 | match<<63
		off += bitsPer
		w += off >> 6
		off &= 63
	}
	return m
}

// borrowOperands returns a, b such that the borrow of (v^a) - b is the
// one-value compare: v == t for eq, otherwise v < t.
func borrowOperands(eq bool, t uint64) (a, b uint64) {
	if eq {
		return t, 1
	}
	return 0, t
}

// PopcountMasks returns the total number of selected rows across masks.
func PopcountMasks(masks []uint64) uint64 {
	var n uint64
	for _, m := range masks {
		n += uint64(bits.OnesCount64(m))
	}
	return n
}

// AllZeroMasks reports whether no row is selected — the short-circuit that
// lets a scan skip the target column (and further predicates) entirely.
func AllZeroMasks(masks []uint64) bool {
	var live uint64
	for _, m := range masks {
		live |= m
	}
	return live == 0
}

// ZeroMasks counts the dead mask words — the chunks a masked fold will
// skip without touching the data. Scan profiling uses it to split a
// target column's chunks into scanned (live mask) and pruned (dead
// mask) without instrumenting the masked kernels themselves.
func ZeroMasks(masks []uint64) uint64 {
	var n uint64
	for _, m := range masks {
		if m == 0 {
			n++
		}
	}
	return n
}

// MaskSparseCutoff is the popcount up to which a masked fold iterates set
// bits with per-element Get instead of passing over the whole chunk; the
// colstore grouped fold uses it the same way for its two chunk decodes.
// Measured (BenchmarkMaskCutoff, ns per 64-element chunk, 2.1 GHz Xeon):
// the Get walk costs about 3 + 2.4 per set bit at widths 4/16 and 8 + 5.5
// at 22/33; the whole-chunk pass costs 13 (masked sum, width 4), 29
// (width 16), 95-99 (widths 22/33), a decode-then-fold masked max about
// 70 (width 16) to 125 (width 22), two decodes for a grouped row about 55
// against two Gets per row. The lines cross at 5-6 set bits (width 4 sum,
// grouped fold), 9-10 (width 16 sum), 13-16 (straddling-width sum) and
// about 22 (masked max); 8 sits between the narrow and the wide crossings
// and costs either side at most a third of a chunk pass.
const MaskSparseCutoff = 8

// SumChunksMasked sums the selected elements of chunks [chunkLo, chunkHi);
// masks[ch-chunkLo] selects within chunk ch. Dead chunks (mask 0) are
// skipped without touching the data, full chunks take the unmasked fused
// kernel, sparse masks iterate set bits, and everything else is one pass
// over the chunk's words.
func (c Codec) SumChunksMasked(data []uint64, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var sum uint64
	wordParallel := c.wordParallel()
	for ch := chunkLo; ch < chunkHi; ch++ {
		m := masks[ch-chunkLo]
		switch {
		case m == 0:
		case m == ^uint64(0):
			sum += c.SumChunks(data, ch, ch+1)
		case bits.OnesCount64(m) <= MaskSparseCutoff:
			base := ch * ChunkSize
			for mm := m; mm != 0; mm &= mm - 1 {
				sum += c.Get(data, base+uint64(bits.TrailingZeros64(mm)))
			}
		default:
			words := data[ch*c.wordsPerChunk : (ch+1)*c.wordsPerChunk]
			if wordParallel {
				sum += sumChunkMaskedWords(words, c.bits, m)
			} else {
				sum += sumChunkMaskedGeneric(words, c.bits, m)
			}
		}
	}
	return sum
}

// sumChunkMaskedWords is the whole-word masked sum for widths that divide
// 64, the mirror of cmpChunkWords: each word's f mask bits spread to the
// bottom of their fields (a multiply or the gather ladders backwards) and
// widen to field masks, the word is ANDed, and neighbouring fields add
// into lanes of twice the width (sumPairs). Those lanes cannot overflow
// across the chunk's words (width * 2*(2^width-1) < 4^width), so the
// ladder down to one lane runs once per chunk. Widths 32 and 64 need no
// lanes, and a 1-bit sum is a popcount.
func sumChunkMaskedWords(words []uint64, width uint, m uint64) (sum uint64) {
	switch width {
	case 1:
		return uint64(bits.OnesCount64(words[0] & m))
	case 2:
		for _, x := range words[:2] {
			sum += sumPairs(x&(spread2(m&0xFFFFFFFF)*3), 2)
			m >>= 32
		}
	case 4:
		for _, x := range words[:4] {
			sum += sumPairs(x&(spread4(m&0xFFFF)*0xF), 4)
			m >>= 16
		}
	case 8:
		for _, x := range words[:8] {
			sum += sumPairs(x&(spread8(m&0xFF)*0xFF), 8)
			m >>= 8
		}
	case 16:
		for _, x := range words[:16] {
			sum += sumPairs(x&(m&0xF*0x0000200040008001&0x0001000100010001*0xFFFF), 16)
			m >>= 4
		}
	case 32:
		for _, x := range words[:32] {
			sum += x&0xFFFFFFFF&-(m&1) + x>>32&-(m>>1&1)
			m >>= 2
		}
		return sum
	default:
		for _, x := range words[:64] {
			sum += x & -(m & 1)
			m >>= 1
		}
		return sum
	}
	for lane := 2 * width; lane < 64; lane *= 2 {
		sum = sumPairs(sum, lane)
	}
	return sum
}

// sumPairs adds every odd lane of the given width into the even lane
// below it, leaving lanes of twice the width.
func sumPairs(x uint64, lane uint) uint64 {
	even := ^uint64(0) / (1<<lane + 1) // the even lanes' bits
	return x&even + x>>lane&even
}

// spread2, spread4 and spread8 are gather2/gather4 (and the width-8
// multiply) backwards: bit k of b moves to bit k*width.
func spread2(b uint64) uint64 {
	b = (b | b<<16) & 0x0000FFFF0000FFFF
	b = (b | b<<8) & 0x00FF00FF00FF00FF
	b = (b | b<<4) & 0x0F0F0F0F0F0F0F0F
	b = (b | b<<2) & 0x3333333333333333
	return (b | b<<1) & 0x5555555555555555
}

func spread4(b uint64) uint64 {
	b = (b | b<<24) & 0x000000FF000000FF
	b = (b | b<<12) & 0x000F000F000F000F
	b = (b | b<<6) & 0x0303030303030303
	return (b | b<<3) & 0x1111111111111111
}

func spread8(b uint64) uint64 {
	b = (b | b<<28) & 0x0000000F0000000F
	b = (b | b<<14) & 0x0003000300030003
	return (b | b<<7) & 0x0101010101010101
}

// sumChunkMaskedGeneric is the masked sum for every other width: one
// fieldAt per element with a branch-free conditional accumulate.
func sumChunkMaskedGeneric(words []uint64, width uint, m uint64) (sum uint64) {
	bitsPer, mask := uint64(width), maskFor(width)
	var buf [ChunkSize]uint64
	copy(buf[:], words[:bitsPer])
	w, off := uint64(0), uint64(0)
	for i := 0; i < ChunkSize; i++ {
		sum += fieldAt(&buf, w, off, mask) & -(m & 1)
		m >>= 1
		off += bitsPer
		w += off >> 6
		off &= 63
	}
	return sum
}

// MaxChunksMasked returns the maximum selected element of chunks
// [chunkLo, chunkHi), or 0 when no bit is set (the unsigned max identity).
func (c Codec) MaxChunksMasked(data []uint64, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	return c.maxChunksMasked(data, chunkLo, chunkHi, masks, 0)
}

// MinChunksMasked returns the minimum selected element of chunks
// [chunkLo, chunkHi), or ^uint64(0) when no bit is set.
func (c Codec) MinChunksMasked(data []uint64, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	return ^c.maxChunksMasked(data, chunkLo, chunkHi, masks, ^uint64(0))
}

// maxChunksMasked is the maximum of v^flip over the selected elements, 0
// when there are none: the masked max with flip = 0, the complement of the
// masked min with flip = ^0. Sparse masks iterate set bits; every other
// live chunk is decoded once and folded without a branch, an unselected
// element contributing the identity 0.
func (c Codec) maxChunksMasked(data []uint64, chunkLo, chunkHi uint64, masks []uint64, flip uint64) uint64 {
	var best uint64
	var buf [ChunkSize]uint64
	for ch := chunkLo; ch < chunkHi; ch++ {
		m := masks[ch-chunkLo]
		switch {
		case m == 0:
		case bits.OnesCount64(m) <= MaskSparseCutoff:
			base := ch * ChunkSize
			for mm := m; mm != 0; mm &= mm - 1 {
				best = max(best, c.Get(data, base+uint64(bits.TrailingZeros64(mm)))^flip)
			}
		default:
			c.Unpack(data, ch, &buf)
			var odd uint64 // a second accumulator halves the compare chain
			for i := 0; i < ChunkSize; i += 2 {
				best = max(best, (buf[i]^flip)&-(m&1))
				odd = max(odd, (buf[i+1]^flip)&-(m>>1&1))
				m >>= 2
			}
			best = max(best, odd)
		}
	}
	return best
}
