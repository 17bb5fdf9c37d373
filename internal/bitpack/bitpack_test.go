package bitpack

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadWidths(t *testing.T) {
	for _, b := range []uint{0, 65, 100} {
		if _, err := New(b); err == nil {
			t.Errorf("New(%d): expected error", b)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0)
}

func TestWordsForWholeChunks(t *testing.T) {
	cases := []struct {
		bits  uint
		n     uint64
		words uint64
	}{
		{1, 64, 1},   // one chunk of 1-bit elems = 1 word
		{1, 65, 2},   // rounds up to two chunks
		{33, 64, 33}, // 64 elems x 33 bits = 33 words
		{33, 1, 33},  // still one whole chunk
		{64, 64, 64},
		{64, 128, 128},
		{32, 64, 32},
		{7, 0, 0},
	}
	for _, c := range cases {
		codec := MustNew(c.bits)
		if got := codec.WordsFor(c.n); got != c.words {
			t.Errorf("WordsFor(bits=%d, n=%d) = %d, want %d", c.bits, c.n, got, c.words)
		}
	}
}

func TestPaperFigure8bExample(t *testing.T) {
	// Figure 8b: two elements 0x1FFFFFFFF and 0x1F packed at 33 bits.
	c := MustNew(33)
	data := make([]uint64, c.WordsFor(2))
	c.Set(data, 0, 0x1FFFFFFFF)
	c.Set(data, 1, 0x1F)
	if got := c.Get(data, 0); got != 0x1FFFFFFFF {
		t.Errorf("Get(0) = %#x, want 0x1FFFFFFFF", got)
	}
	if got := c.Get(data, 1); got != 0x1F {
		t.Errorf("Get(1) = %#x, want 0x1F", got)
	}
}

func TestRoundTripAllWidths(t *testing.T) {
	const n = 3 * ChunkSize // multiple chunks incl. straddling elements
	rng := rand.New(rand.NewSource(42))
	for b := uint(1); b <= 64; b++ {
		c := MustNew(b)
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64() & c.Mask()
		}
		data := c.PackSlice(src)
		for i, want := range src {
			if got := c.Get(data, uint64(i)); got != want {
				t.Fatalf("bits=%d: Get(%d) = %#x, want %#x", b, i, got, want)
			}
		}
	}
}

func TestRoundTripNonMultipleOfChunk(t *testing.T) {
	// Lengths that do not fill the last chunk; the last chunk's exact-fit
	// boundary element must not write past the allocation.
	for _, n := range []uint64{1, 63, 64, 65, 127, 130} {
		for _, b := range []uint{1, 3, 31, 33, 63} {
			c := MustNew(b)
			src := make([]uint64, n)
			for i := range src {
				src[i] = uint64(i) & c.Mask()
			}
			data := c.PackSlice(src)
			got := unpackSlice(c, data, n)
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("bits=%d n=%d: elem %d = %#x, want %#x", b, n, i, got[i], src[i])
				}
			}
		}
	}
}

// TestUnpackMatchesGet holds Unpack to per-element Get at every width, on
// random, all-ones and alternating (all-ones, zero, …) content, for the
// first, a middle and the last chunk of a five-chunk payload. Each chunk
// is decoded from a payload cut exactly at its last word, so a decode that
// reads past its own chunk panics.
func TestUnpackMatchesGet(t *testing.T) {
	const chunks = 5
	rng := rand.New(rand.NewSource(7))
	contents := []struct {
		name string
		fill func(i int, mask uint64) uint64
	}{
		{"random", func(_ int, mask uint64) uint64 { return rng.Uint64() & mask }},
		{"ones", func(_ int, mask uint64) uint64 { return mask }},
		{"alternating", func(i int, mask uint64) uint64 { return mask * uint64(1-i%2) }},
	}
	for b := uint(1); b <= 64; b++ {
		c := MustNew(b)
		for _, content := range contents {
			src := make([]uint64, chunks*ChunkSize)
			for i := range src {
				src[i] = content.fill(i, c.Mask())
			}
			data := c.PackSlice(src)
			for _, chunk := range []uint64{0, chunks / 2, chunks - 1} {
				var out [ChunkSize]uint64
				c.Unpack(data[:(chunk+1)*c.WordsPerChunk()], chunk, &out)
				for i, got := range out {
					idx := chunk*ChunkSize + uint64(i)
					if want := c.Get(data, idx); got != want {
						t.Fatalf("bits=%d %s chunk %d: unpack[%d] = %#x, Get = %#x", b, content.name, chunk, idx, got, want)
					}
				}
			}
		}
	}
}

func TestSetOverwrite(t *testing.T) {
	// Overwriting an element must not disturb its neighbours, including
	// across word boundaries.
	for _, b := range []uint{5, 33, 63} {
		c := MustNew(b)
		const n = ChunkSize
		src := make([]uint64, n)
		for i := range src {
			src[i] = c.Mask() // all ones: most sensitive to slot clearing
		}
		data := c.PackSlice(src)
		for i := uint64(0); i < n; i++ {
			c.Set(data, i, 0)
			if got := c.Get(data, i); got != 0 {
				t.Fatalf("bits=%d: after clearing %d, Get = %#x", b, i, got)
			}
			// Neighbours untouched.
			if i > 0 {
				if got := c.Get(data, i-1); got != 0 {
					t.Fatalf("bits=%d: clearing %d disturbed %d: %#x", b, i, i-1, got)
				}
			}
			if i+1 < n {
				if got := c.Get(data, i+1); got != c.Mask() {
					t.Fatalf("bits=%d: clearing %d disturbed %d: %#x", b, i, i+1, got)
				}
			}
		}
	}
}

func TestSetPanicsOnOverflow(t *testing.T) {
	c := MustNew(10)
	data := make([]uint64, c.WordsFor(64))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range value")
		}
	}()
	c.Set(data, 0, 1<<10)
}

func TestMinBits(t *testing.T) {
	cases := []struct {
		v    uint64
		want uint
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{(1 << 31) - 1, 31}, {1 << 31, 32},
		{0x1FFFFFFFF, 33},
		{^uint64(0), 64},
	}
	for _, c := range cases {
		if got := MinBits(c.v); got != c.want {
			t.Errorf("MinBits(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestMinBitsFor(t *testing.T) {
	if got := MinBitsFor([]uint64{1, 5, 1 << 20}); got != 21 {
		t.Errorf("MinBitsFor = %d, want 21", got)
	}
	if got := MinBitsFor(nil); got != 1 {
		t.Errorf("MinBitsFor(nil) = %d, want 1", got)
	}
}

func TestFits(t *testing.T) {
	c := MustNew(33)
	if !c.Fits(0x1FFFFFFFF) {
		t.Error("0x1FFFFFFFF should fit in 33 bits")
	}
	if c.Fits(0x200000000) {
		t.Error("0x200000000 should not fit in 33 bits")
	}
}

func TestCompressedBytes(t *testing.T) {
	c := MustNew(33)
	// 64 elements at 33 bits = 33 words = 264 bytes (vs 512 uncompressed).
	if got := c.CompressedBytes(64); got != 264 {
		t.Errorf("CompressedBytes(64) = %d, want 264", got)
	}
}

// Property: pack-then-get is the identity for masked values, any width.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64, width uint8) bool {
		b := uint(width%64) + 1
		c := MustNew(b)
		if len(vals) > 300 {
			vals = vals[:300]
		}
		for i := range vals {
			vals[i] &= c.Mask()
		}
		data := c.PackSlice(vals)
		for i, want := range vals {
			if c.Get(data, uint64(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Unpack inverts PackSlice for whole and partial chunks.
func TestQuickUnpackSlice(t *testing.T) {
	f := func(vals []uint64, width uint8) bool {
		b := uint(width%64) + 1
		c := MustNew(b)
		if len(vals) > 300 {
			vals = vals[:300]
		}
		for i := range vals {
			vals[i] &= c.Mask()
		}
		data := c.PackSlice(vals)
		got := unpackSlice(c, data, uint64(len(vals)))
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random single-element overwrites behave like a plain slice.
func TestQuickSetAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		b := uint(width%64) + 1
		c := MustNew(b)
		const n = 2 * ChunkSize
		rng := rand.New(rand.NewSource(seed))
		ref := make([]uint64, n)
		data := make([]uint64, c.WordsFor(n))
		for op := 0; op < 300; op++ {
			i := uint64(rng.Intn(n))
			v := rng.Uint64() & c.Mask()
			ref[i] = v
			c.Set(data, i, v)
		}
		for i := uint64(0); i < n; i++ {
			if c.Get(data, i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGet33(b *testing.B) { benchGet(b, 33) }
func BenchmarkGet64(b *testing.B) { benchGet(b, 64) }

// BenchmarkUnpack decodes every chunk of a benchElems column per pass at
// straddling widths (the word walk; 17 is a "V+E" graph's edge width, 20
// the served graph's begin width, 22 the served id) and at 32 bits (the
// word split, the served graph's edge width), in ns/elem next to a
// same-run plain 64-bit sum (`make bench-scan`).
func BenchmarkUnpack(b *testing.B) {
	b.Run("sum64", benchSum64)
	const chunks = benchElems / ChunkSize
	for _, width := range []uint{10, 17, 20, 22, 32, 33} {
		c, data := benchColumn(width)
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			var out [ChunkSize]uint64
			for n := 0; n < b.N; n++ {
				for ch := uint64(0); ch < chunks; ch++ {
					c.Unpack(data, ch, &out)
					benchSink += out[ch%ChunkSize]
				}
			}
			reportPerElem(b)
		})
	}
}

func benchGet(b *testing.B, width uint) {
	c := MustNew(width)
	const n = 1 << 14
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(i) & c.Mask()
	}
	data := c.PackSlice(src)
	b.SetBytes(8)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += c.Get(data, uint64(i)&(n-1))
	}
	_ = sink
}

// unpackSlice decodes the first n elements of a PackSlice payload chunk by
// chunk through Unpack.
func unpackSlice(c Codec, data []uint64, n uint64) []uint64 {
	out := make([]uint64, (n+ChunkSize-1)/ChunkSize*ChunkSize)
	for ch := uint64(0); ch*ChunkSize < n; ch++ {
		c.Unpack(data, ch, (*[ChunkSize]uint64)(out[ch*ChunkSize:]))
	}
	return out[:n]
}
