package bitpack

import (
	"fmt"
	"testing"
)

// oracleCmpMaskChunk is the per-element compare the word-parallel kernels
// replaced — Unpack's extract schedule, one element at a time, then the
// operator itself — kept as the reference every kernel is checked against.
func oracleCmpMaskChunk(c Codec, data []uint64, chunk uint64, op Cmp, threshold uint64) uint64 {
	var m uint64
	bitsPer := uint64(c.bits)
	word := chunk * c.wordsPerChunk
	value := data[word]
	bitInWord := uint64(0)
	for i := 0; i < ChunkSize; i++ {
		var v uint64
		switch {
		case bitInWord+bitsPer < 64:
			v = (value >> bitInWord) & c.mask
			bitInWord += bitsPer
		case bitInWord+bitsPer == 64:
			v = (value >> bitInWord) & c.mask
			bitInWord = 0
			word++
			if i < ChunkSize-1 {
				value = data[word]
			}
		default:
			next := data[word+1]
			v = c.mask & ((value >> bitInWord) | (next << (64 - bitInWord)))
			bitInWord = bitInWord + bitsPer - 64
			word++
			value = next
		}
		if op.Eval(v, threshold) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// gridThresholds is every edge the canonicalisation and the carry
// arithmetic have: the range ends, the three values around the top bit of
// a field, one past the maximum (where it exists), and a random one.
func gridThresholds(c Codec, state *uint64) []uint64 {
	top := uint64(1) << (c.Bits() - 1)
	return []uint64{0, 1, top - 1, top, top + 1, c.Mask() - 1, c.Mask(), c.Mask() + 1, lcg(state) & c.Mask()}
}

// gridContents builds n values of each shape: all-zero, all-max,
// alternating zero/max, random.
func gridContents(c Codec, n int, state *uint64) map[string][]uint64 {
	shapes := map[string][]uint64{"zero": make([]uint64, n), "max": make([]uint64, n), "alternating": make([]uint64, n), "random": make([]uint64, n)}
	for i := 0; i < n; i++ {
		shapes["max"][i] = c.Mask()
		shapes["alternating"][i] = c.Mask() * uint64(i&1)
		shapes["random"][i] = lcg(state) >> 7 & c.Mask()
	}
	return shapes
}

// TestCmpMaskGrid checks the range kernels, the single-chunk entry point
// and the oracle against each other over every width, operator, edge
// threshold and content shape, on ragged lengths (the padding of the last
// chunk is part of the compare) and on sub-ranges that start past chunk 0.
func TestCmpMaskGrid(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		c := MustNew(width)
		state := uint64(width) * 7919
		for _, n := range []int{1, ChunkSize, 3*ChunkSize + 17} {
			chunks := (uint64(n) + ChunkSize - 1) / ChunkSize
			for shape, values := range gridContents(c, n, &state) {
				data := c.PackSlice(values)
				for _, op := range allCmps {
					for _, thr := range gridThresholds(c, &state) {
						name := fmt.Sprintf("bits=%d n=%d %s op=%s thr=%#x", width, n, shape, op, thr)
						want := make([]uint64, chunks)
						for ch := range want {
							want[ch] = oracleCmpMaskChunk(c, data, uint64(ch), op, thr)
							if got := c.CmpMaskChunk(data, uint64(ch), op, thr); got != want[ch] {
								t.Fatalf("%s chunk %d: CmpMaskChunk %#x, oracle %#x", name, ch, got, want[ch])
							}
						}
						for lo := uint64(0); lo < chunks; lo++ {
							got := make([]uint64, chunks-lo)
							c.CmpMaskChunks(data, lo, chunks, op, thr, got)
							// The And form over a running conjunction with a
							// dead word, a full word and irregular ones.
							and := make([]uint64, chunks-lo)
							for i := range and {
								and[i] = [...]uint64{^uint64(0), 0, 0xF0F0F0F0F0F0F0F0, lcg(&state)}[i%4]
							}
							prior := append([]uint64(nil), and...)
							evaluated := c.CmpMaskChunksAnd(data, lo, chunks, op, thr, and)
							var live uint64
							for i := range got {
								if got[i] != want[lo+uint64(i)] {
									t.Fatalf("%s: CmpMaskChunks[%d,%d) word %d = %#x, oracle %#x", name, lo, chunks, i, got[i], want[lo+uint64(i)])
								}
								if and[i] != prior[i]&want[lo+uint64(i)] {
									t.Fatalf("%s: CmpMaskChunksAnd[%d,%d) word %d = %#x, want %#x", name, lo, chunks, i, and[i], prior[i]&want[lo+uint64(i)])
								}
								if prior[i] != 0 {
									live++
								}
							}
							if evaluated != live {
								t.Fatalf("%s: CmpMaskChunksAnd evaluated %d chunks, %d were live", name, evaluated, live)
							}
						}
					}
				}
			}
		}
	}
}

// gridMasks is one mask of every shape the fold triage branches on: dead,
// full, one bit, exactly the sparse cutoff, one above it, random.
func gridMasks(state *uint64) []uint64 {
	return []uint64{0, ^uint64(0), 1 << (lcg(state) >> 58),
		randomMask(state, MaskSparseCutoff), randomMask(state, MaskSparseCutoff+1), lcg(state)}
}

// TestMaskedFoldGrid checks the masked sum, max and min against
// per-element folds over every width, content shape and mask shape, with
// the mask shapes rotated across the chunks of a ragged multi-chunk range.
func TestMaskedFoldGrid(t *testing.T) {
	const n = 3*ChunkSize + 17
	const chunks = 4
	for width := uint(1); width <= 64; width++ {
		c := MustNew(width)
		state := uint64(width) * 104729
		for shape, values := range gridContents(c, n, &state) {
			data := c.PackSlice(values)
			shapes := gridMasks(&state)
			for rot := range shapes {
				masks := make([]uint64, chunks)
				for ch := range masks {
					masks[ch] = shapes[(rot+ch)%len(shapes)]
				}
				for lo := uint64(0); lo < chunks; lo++ {
					var wantSum, wantMax uint64
					wantMin := ^uint64(0)
					for i := lo * ChunkSize; i < chunks*ChunkSize; i++ {
						if masks[i/ChunkSize-lo]>>(i%ChunkSize)&1 == 0 {
							continue
						}
						v := c.Get(data, i)
						wantSum += v
						wantMax = max(wantMax, v)
						wantMin = min(wantMin, v)
					}
					name := fmt.Sprintf("bits=%d %s rot=%d chunks [%d,%d)", width, shape, rot, lo, chunks)
					if got := c.SumChunksMasked(data, lo, chunks, masks); got != wantSum {
						t.Fatalf("%s: SumChunksMasked = %d, want %d", name, got, wantSum)
					}
					if got := c.MaxChunksMasked(data, lo, chunks, masks); got != wantMax {
						t.Fatalf("%s: MaxChunksMasked = %d, want %d", name, got, wantMax)
					}
					if got := c.MinChunksMasked(data, lo, chunks, masks); got != wantMin {
						t.Fatalf("%s: MinChunksMasked = %d, want %d", name, got, wantMin)
					}
				}
			}
		}
	}
}
