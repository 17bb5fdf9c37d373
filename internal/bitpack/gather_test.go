package bitpack

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// packRandom packs n pseudo-random width-clamped values and returns both
// the packed words and the plain reference slice.
func packRandom(t *testing.T, c Codec, n int, seed int64) ([]uint64, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	values := make([]uint64, n)
	for i := range values {
		values[i] = rng.Uint64() & c.Mask()
	}
	return c.PackSlice(values), values
}

func TestGatherAllWidths(t *testing.T) {
	const n = 1000
	for bits := uint(1); bits <= 64; bits++ {
		c := MustNew(bits)
		data, values := packRandom(t, c, n, int64(bits))
		rng := rand.New(rand.NewSource(int64(bits) * 7))
		idx := make([]uint64, 300)
		for i := range idx {
			idx[i] = uint64(rng.Intn(n)) // any order, repeats allowed
		}
		out := make([]uint64, len(idx))
		c.Gather(data, idx, out)
		for i, x := range idx {
			if out[i] != values[x] {
				t.Fatalf("bits=%d: Gather out[%d] (idx %d) = %#x, want %#x",
					bits, i, x, out[i], values[x])
			}
		}
	}
}

func TestGatherEmpty(t *testing.T) {
	c := MustNew(13)
	data := c.PackSlice([]uint64{1, 2, 3})
	c.Gather(data, nil, nil) // must not panic
}

// collectRange runs UnpackRange and reassembles the emitted runs, checking
// the emit contract (in-order, contiguous, bounded by len(buf)) as it goes.
func collectRange(t *testing.T, c Codec, data []uint64, lo, hi uint64, buf []uint64) []uint64 {
	t.Helper()
	got := make([]uint64, 0, hi-lo)
	next := lo
	c.UnpackRange(data, lo, hi, buf, func(base uint64, vals []uint64) {
		if base != next {
			t.Fatalf("bits=%d [%d,%d): emit base %d, want %d", c.Bits(), lo, hi, base, next)
		}
		if len(vals) == 0 || uint64(len(vals)) > uint64(len(buf)) {
			t.Fatalf("bits=%d [%d,%d): emit run of %d elements (buf %d)",
				c.Bits(), lo, hi, len(vals), len(buf))
		}
		got = append(got, vals...)
		next = base + uint64(len(vals))
	})
	if next != hi && lo < hi {
		t.Fatalf("bits=%d: UnpackRange stopped at %d, want %d", c.Bits(), next, hi)
	}
	return got
}

func TestUnpackRangeAllWidths(t *testing.T) {
	const n = 700
	// Ragged and aligned endpoints, plus whole-array and empty ranges.
	ranges := [][2]uint64{
		{0, n}, {0, 64}, {64, 128}, {1, 2}, {63, 65}, {17, 17},
		{5, 61}, {100, 447}, {n - 1, n}, {n - 65, n}, {128, 640},
	}
	bufSizes := []int{ChunkSize, ChunkSize + 1, 2 * ChunkSize, 3*ChunkSize + 17, n + ChunkSize}
	for bits := uint(1); bits <= 64; bits++ {
		c := MustNew(bits)
		data, values := packRandom(t, c, n, int64(bits)+500)
		for _, r := range ranges {
			for _, bs := range bufSizes {
				got := collectRange(t, c, data, r[0], r[1], make([]uint64, bs))
				if uint64(len(got)) != r[1]-r[0] {
					t.Fatalf("bits=%d [%d,%d) buf=%d: got %d elements", bits, r[0], r[1], bs, len(got))
				}
				for i, v := range got {
					if want := values[r[0]+uint64(i)]; v != want {
						t.Fatalf("bits=%d [%d,%d) buf=%d: element %d = %#x, want %#x (Get=%#x)",
							bits, r[0], r[1], bs, r[0]+uint64(i), v, want, c.Get(data, r[0]+uint64(i)))
					}
				}
			}
		}
	}
}

func TestUnpackRangeSmallBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized buffer")
		}
	}()
	c := MustNew(10)
	data := c.PackSlice(make([]uint64, 128))
	c.UnpackRange(data, 0, 128, make([]uint64, ChunkSize-1), func(uint64, []uint64) {})
}

// FuzzGather cross-checks Gather and UnpackRange against per-element Get
// on fuzzer-chosen widths, values, index vectors, and range endpoints.
func FuzzGather(f *testing.F) {
	// A seed's width byte w selects w%64 + 1 bits; lo and hi are reduced
	// mod n and n+1 for n elements.
	f.Add(uint8(13), uint16(3), uint16(90), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})          // 14 bits
	f.Add(uint8(32), uint16(0), uint16(1), []byte{255, 255, 255, 255, 255, 255, 255, 255}) // 33 bits
	f.Add(uint8(64), uint16(65), uint16(200), []byte{1, 2, 3, 4, 5, 6, 7, 8})              // 1 bit
	f.Add(uint8(31), uint16(3), uint16(2*ChunkSize+37), seedBytes(2*ChunkSize+37))         // 32 bits, [3, n)
	f.Add(uint8(63), uint16(65), uint16(200), seedBytes(3*ChunkSize+17))                   // 64 bits, [65, 200)
	f.Fuzz(func(t *testing.T, width uint8, loRaw, hiRaw uint16, raw []byte) {
		bits := uint(width%64) + 1
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

		// Gather at fuzzer-derived indices (reduced mod n, so always valid).
		idx := make([]uint64, len(raw))
		for i, b := range raw {
			idx[i] = uint64(b) % uint64(n)
		}
		out := make([]uint64, len(idx))
		c.Gather(data, idx, out)
		for i, x := range idx {
			if out[i] != values[x] {
				t.Fatalf("bits=%d: Gather idx %d = %#x, want %#x", bits, x, out[i], values[x])
			}
		}

		// UnpackRange over a fuzzer-chosen sub-range.
		lo := uint64(loRaw) % uint64(n)
		hi := uint64(hiRaw) % uint64(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		buf := make([]uint64, ChunkSize+int(width)%ChunkSize)
		pos := lo
		c.UnpackRange(data, lo, hi, buf, func(base uint64, vals []uint64) {
			if base != pos {
				t.Fatalf("bits=%d: emit base %d, want %d", bits, base, pos)
			}
			for j, v := range vals {
				if want := values[base+uint64(j)]; v != want {
					t.Fatalf("bits=%d: range elem %d = %#x, want %#x", bits, base+uint64(j), v, want)
				}
			}
			pos = base + uint64(len(vals))
		})
		if pos != hi {
			t.Fatalf("bits=%d: range [%d,%d) stopped at %d", bits, lo, hi, pos)
		}
	})
}
