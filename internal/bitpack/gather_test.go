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

// FuzzGather cross-checks Gather against the packed values on
// fuzzer-chosen widths, values and index vectors.
func FuzzGather(f *testing.F) {
	// A seed's width byte w selects w%64 + 1 bits. The two uint16
	// arguments are unused; they stay so that corpus entries written for
	// this signature still load.
	f.Add(uint8(13), uint16(3), uint16(90), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})          // 14 bits
	f.Add(uint8(32), uint16(0), uint16(1), []byte{255, 255, 255, 255, 255, 255, 255, 255}) // 33 bits
	f.Add(uint8(64), uint16(65), uint16(200), []byte{1, 2, 3, 4, 5, 6, 7, 8})              // 1 bit
	f.Add(uint8(31), uint16(3), uint16(2*ChunkSize+37), seedBytes(2*ChunkSize+37))         // 32 bits
	f.Add(uint8(63), uint16(65), uint16(200), seedBytes(3*ChunkSize+17))                   // 64 bits
	f.Fuzz(func(t *testing.T, width uint8, _, _ uint16, raw []byte) {
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
	})
}
