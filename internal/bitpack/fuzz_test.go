package bitpack

import (
	"encoding/binary"
	"testing"
)

// FuzzCmpMask packs fuzzer-chosen values at a fuzzer-chosen width and
// verifies CmpMaskChunk against per-element Get + Eval for a
// fuzzer-chosen operator and (unclamped, possibly out-of-range)
// threshold, the range forms CmpMaskChunks/CmpMaskChunksAnd over the
// whole span against it, and the masked sum against its reference.
func FuzzCmpMask(f *testing.F) {
	// A seed's width byte w selects w%64 + 1 bits.
	f.Add(uint8(13), uint8(2), uint64(100), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})         // 14 bits
	f.Add(uint8(32), uint8(0), uint64(0), []byte{255, 255, 255, 255, 255, 255, 255, 255}) // 33 bits
	f.Add(uint8(64), uint8(5), ^uint64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})                // 1 bit
	f.Add(uint8(31), uint8(1), uint64(1)<<31, seedBytes(2*ChunkSize+37))                  // 32 bits
	f.Add(uint8(63), uint8(3), uint64(1)<<63, seedBytes(2*ChunkSize+37))                  // 64 bits
	f.Fuzz(func(t *testing.T, width, opRaw uint8, threshold uint64, raw []byte) {
		bits := uint(width%64) + 1
		op := Cmp(opRaw % 6)
		c := MustNew(bits)
		n := len(raw) / 8
		if n == 0 {
			return
		}
		if n > 300 {
			n = 300
		}
		values := make([]uint64, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint64(raw[i*8:]) & c.Mask()
		}
		data := c.PackSlice(values)
		chunks := (uint64(n) + ChunkSize - 1) / ChunkSize
		masks := make([]uint64, chunks)
		for ch := uint64(0); ch < chunks; ch++ {
			masks[ch] = c.CmpMaskChunk(data, ch, op, threshold)
			for i := 0; i < ChunkSize; i++ {
				// Padding elements beyond n decode as zeros; the
				// reference uses the same packed data, so they agree.
				got := masks[ch]>>uint(i)&1 == 1
				want := op.Eval(c.Get(data, ch*ChunkSize+uint64(i)), threshold)
				if got != want {
					t.Fatalf("bits=%d op=%s thr=%d: element %d selected=%v, want %v",
						bits, op, threshold, ch*ChunkSize+uint64(i), got, want)
				}
			}
		}
		// The range forms over the whole multi-chunk span: the fill must
		// reproduce the single-chunk masks, and the And form — over a
		// running conjunction drawn from the fuzzer's bytes, with every
		// third word dead — their intersection, evaluating only live words.
		span := make([]uint64, chunks)
		c.CmpMaskChunks(data, 0, chunks, op, threshold, span)
		and := make([]uint64, chunks)
		for ch := range and {
			if ch%3 != 2 {
				and[ch] = values[ch%n]*0x9E3779B97F4A7C15 | 1
			}
		}
		prior := append([]uint64(nil), and...)
		evaluated := c.CmpMaskChunksAnd(data, 0, chunks, op, threshold, and)
		var live uint64
		for ch := range span {
			if span[ch] != masks[ch] {
				t.Fatalf("bits=%d op=%s thr=%d: CmpMaskChunks word %d = %#x, CmpMaskChunk %#x", bits, op, threshold, ch, span[ch], masks[ch])
			}
			if and[ch] != prior[ch]&masks[ch] {
				t.Fatalf("bits=%d op=%s thr=%d: CmpMaskChunksAnd word %d = %#x, want %#x", bits, op, threshold, ch, and[ch], prior[ch]&masks[ch])
			}
			if prior[ch] != 0 {
				live++
			}
		}
		if evaluated != live {
			t.Fatalf("bits=%d op=%s thr=%d: CmpMaskChunksAnd evaluated %d chunks, %d were live", bits, op, threshold, evaluated, live)
		}
		var want uint64
		for i := uint64(0); i < chunks*ChunkSize; i++ {
			if masks[i/ChunkSize]>>(i%ChunkSize)&1 == 1 {
				want += c.Get(data, i)
			}
		}
		if got := c.SumChunksMasked(data, 0, chunks, masks); got != want {
			t.Fatalf("bits=%d op=%s thr=%d: SumChunksMasked = %d, want %d", bits, op, threshold, got, want)
		}
	})
}

// FuzzRoundTrip packs fuzzer-chosen values at a fuzzer-chosen width and
// verifies that Pack (through PackSlice) writes the words per-element Set
// writes, that Get and Unpack agree with the input, and that per-chunk
// Unpack agrees with Get.
func FuzzRoundTrip(f *testing.F) {
	// A seed's width byte w selects w%64 + 1 bits.
	f.Add(uint8(33), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) // 34 bits
	f.Add(uint8(1), seedBytes(ChunkSize+5))                 // 2 bits
	f.Add(uint8(0), seedBytes(2*ChunkSize))                 // 1 bit
	f.Add(uint8(31), seedBytes(2*ChunkSize+37))             // 32 bits
	f.Add(uint8(63), seedBytes(2*ChunkSize+37))             // 64 bits
	f.Fuzz(func(t *testing.T, width uint8, raw []byte) {
		bits := uint(width%64) + 1
		c := MustNew(bits)
		n := len(raw) / 8
		if n == 0 {
			return
		}
		if n > 200 {
			n = 200
		}
		values := make([]uint64, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint64(raw[i*8:]) & c.Mask()
		}
		data := c.PackSlice(values)
		for w, want := range setSlice(c, values) {
			if data[w] != want {
				t.Fatalf("bits=%d: Pack wrote word %d = %#x, Set writes %#x", bits, w, data[w], want)
			}
		}
		for i, want := range values {
			if got := c.Get(data, uint64(i)); got != want {
				t.Fatalf("bits=%d: Get(%d) = %#x, want %#x", bits, i, got, want)
			}
		}
		// Every chunk, the zero-padded tail included, decodes to what Get
		// reads, from a payload that ends at the chunk's last word.
		var out [ChunkSize]uint64
		for ch := uint64(0); ch < c.WordsFor(uint64(n))/c.WordsPerChunk(); ch++ {
			c.Unpack(data[:(ch+1)*c.WordsPerChunk()], ch, &out)
			for i, got := range out {
				if want := c.Get(data, ch*ChunkSize+uint64(i)); got != want {
					t.Fatalf("bits=%d: Unpack chunk %d [%d] = %#x, Get %#x", bits, ch, i, got, want)
				}
			}
		}
		dec := unpackSlice(c, data, uint64(n))
		for i := range values {
			if dec[i] != values[i] {
				t.Fatalf("bits=%d: unpack[%d] mismatch", bits, i)
			}
		}
	})
}

// seedBytes returns the bytes of n deterministic pseudo-random 64-bit
// values, the raw input a seed corpus entry decodes into n elements: every
// bit of every width is exercised, and n past ChunkSize spans chunks.
func seedBytes(n int) []byte {
	raw := make([]byte, 8*n)
	state := uint64(n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(raw[8*i:], lcg(&state))
	}
	return raw
}
