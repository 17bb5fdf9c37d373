package bitpack

import (
	"fmt"
	"math/bits"
	"testing"
)

// The predicate-kernel sizing grid (`make bench-scan`): ns/elem of the
// range compare and the masked sum per width, next to a same-run plain
// 64-bit sum over as many elements — the host's roofline row, so every
// cell reads as a ratio to it whatever the machine is doing that minute.

const benchElems = 1 << 20

var benchSink uint64

func reportPerElem(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchElems, "ns/elem")
}

func benchSum64(b *testing.B) {
	plain := make([]uint64, benchElems)
	for i := range plain {
		plain[i] = uint64(i)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var s uint64
		for _, v := range plain {
			s += v
		}
		benchSink += s
	}
	reportPerElem(b)
}

// benchColumn packs benchElems pseudo-random values at the given width.
func benchColumn(width uint) (Codec, []uint64) {
	c := MustNew(width)
	values := make([]uint64, benchElems)
	state := uint64(width)*2654435761 + 1
	for i := range values {
		values[i] = lcg(&state) >> 11 & c.Mask()
	}
	return c, c.PackSlice(values)
}

func BenchmarkCmpMask(b *testing.B) {
	b.Run("sum64", benchSum64)
	const chunks = benchElems / ChunkSize
	masks := make([]uint64, chunks)
	for _, width := range []uint{1, 4, 16, 22, 33, 64} {
		c, data := benchColumn(width)
		// Operator x selectivity: v < t at 1/50/99 % of the value range
		// (never 0, which is a constant outcome; a 1-bit column has only
		// t = 1), and v == t (which almost nothing matches). On wide
		// columns the threshold moves a little every pass.
		for _, cell := range []struct {
			name string
			op   Cmp
			pct  uint64
		}{{"lt/sel01", CmpLt, 1}, {"lt/sel50", CmpLt, 50}, {"lt/sel99", CmpLt, 99}, {"eq", CmpEq, 50}} {
			b.Run(fmt.Sprintf("w%d/%s", width, cell.name), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					thr := max(1, c.Mask()/100*cell.pct+c.Mask()%100*cell.pct/100) + uint64(n)&(c.Mask()>>8)&0xF
					c.CmpMaskChunks(data, 0, chunks, cell.op, thr, masks)
					benchSink += masks[n%chunks]
				}
				reportPerElem(b)
			})
		}
	}
}

func BenchmarkSumMasked(b *testing.B) {
	b.Run("sum64", benchSum64)
	const chunks = benchElems / ChunkSize
	for _, width := range []uint{4, 16, 33} {
		c, data := benchColumn(width)
		// Selectivity as the mask's popcount per chunk: sparse (the
		// bit-iterating branch), the cutoff's neighbourhood, dense.
		for _, pop := range []int{4, 16, 17, 32, 60} {
			masks := make([]uint64, chunks)
			state := uint64(pop)
			for i := range masks {
				masks[i] = randomMask(&state, pop)
			}
			b.Run(fmt.Sprintf("w%d/pop%d", width, pop), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					benchSink += c.SumChunksMasked(data, 0, chunks, masks)
				}
				reportPerElem(b)
			})
		}
	}
}

// randomMask returns a mask with exactly pop bits set.
func randomMask(state *uint64, pop int) uint64 {
	var m uint64
	for set := 0; set < pop; {
		bit := uint64(1) << (lcg(state) >> 33 % 64)
		if m&bit == 0 {
			m |= bit
			set++
		}
	}
	return m
}

// BenchmarkMaskCutoff is the measurement behind MaskSparseCutoff: the two
// ways a masked fold can treat a live chunk, forced, per mask popcount —
// "sparse" is the Get-per-set-bit walk, "dense" the whole-chunk pass
// (whole-word masked sum at widths 4/16, extract-all at 22/33; the masked
// max's decode-then-fold costs the "unpack" row more per chunk). The
// constant sits where the sparse line crosses the dense ones.
func BenchmarkMaskCutoff(b *testing.B) {
	const chunks = benchElems / ChunkSize
	for _, width := range []uint{4, 16, 22, 33} {
		c, data := benchColumn(width)
		wpc := c.WordsPerChunk()
		b.Run(fmt.Sprintf("w%d/dense", width), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for ch := uint64(0); ch < chunks; ch++ {
					if 64%width == 0 {
						benchSink += sumChunkMaskedWords(data[ch*wpc:(ch+1)*wpc], width, 0x5555555555555555)
					} else {
						benchSink += sumChunkMaskedGeneric(data[ch*wpc:(ch+1)*wpc], width, 0x5555555555555555)
					}
				}
			}
			reportPerElem(b)
		})
		b.Run(fmt.Sprintf("w%d/unpack", width), func(b *testing.B) {
			var buf [ChunkSize]uint64
			for n := 0; n < b.N; n++ {
				for ch := uint64(0); ch < chunks; ch++ {
					c.Unpack(data, ch, &buf)
					benchSink += buf[n%ChunkSize]
				}
			}
			reportPerElem(b)
		})
		for _, pop := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32} {
			masks := make([]uint64, chunks)
			state := uint64(pop)
			for i := range masks {
				masks[i] = randomMask(&state, pop)
			}
			b.Run(fmt.Sprintf("w%d/sparse/pop%d", width, pop), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					var sum uint64
					for ch, m := range masks {
						for base := uint64(ch) * ChunkSize; m != 0; m &= m - 1 {
							sum += c.Get(data, base+uint64(bits.TrailingZeros64(m)))
						}
					}
					benchSink += sum
				}
				reportPerElem(b)
			})
		}
	}
}
