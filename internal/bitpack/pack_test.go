package bitpack

import (
	"fmt"
	"strings"
	"testing"
)

// setSlice is the per-element reference for Pack and PackSlice: Function 2
// once per value into a zeroed whole-chunk buffer.
func setSlice(c Codec, values []uint64) []uint64 {
	data := make([]uint64, c.WordsFor(uint64(len(values))))
	for i, v := range values {
		c.Set(data, uint64(i), v)
	}
	return data
}

// TestPackMatchesSet holds Pack to per-element Set for every width: the
// packed words of the target chunk are identical whatever the destination
// held before (Pack never merges with old contents), and the words of the
// neighbouring chunks are left exactly as they were.
func TestPackMatchesSet(t *testing.T) {
	const chunks = 4
	const dirt = 0xA5A5_5A5A_F00F_0FF0
	for bits := uint(1); bits <= 64; bits++ {
		c := MustNew(bits)
		wpc := c.WordsPerChunk()
		state := uint64(bits) * 0x9E3779B97F4A7C15
		fills := []struct {
			name string
			fill func(i int) uint64
		}{
			{"random", func(int) uint64 { return lcg(&state) & c.Mask() }},
			{"all-ones", func(int) uint64 { return c.Mask() }},
			{"alternating", func(i int) uint64 { return uint64(i%2) * c.Mask() }},
		}
		for _, f := range fills {
			name, fill := f.name, f.fill
			for _, chunk := range []uint64{0, 2} {
				var in [ChunkSize]uint64
				for i := range in {
					in[i] = fill(i)
				}
				values := make([]uint64, chunks*ChunkSize)
				copy(values[chunk*ChunkSize:], in[:])
				want := setSlice(c, values)

				got := make([]uint64, len(want))
				for i := range got {
					got[i] = dirt
				}
				c.Pack(got, chunk, in[:])
				for w := range got {
					inChunk := uint64(w) >= chunk*wpc && uint64(w) < (chunk+1)*wpc
					if inChunk && got[w] != want[w] {
						t.Fatalf("bits=%d %s chunk %d: word %d = %#x, Set gives %#x", bits, name, chunk, w, got[w], want[w])
					}
					if !inChunk && got[w] != dirt {
						t.Fatalf("bits=%d %s chunk %d: Pack wrote word %d outside its chunk", bits, name, chunk, w)
					}
				}
				var back [ChunkSize]uint64
				c.Unpack(got, chunk, &back)
				if back != in {
					t.Fatalf("bits=%d %s chunk %d: Unpack(Pack(in)) != in", bits, name, chunk)
				}
			}
		}
	}
}

// TestPackSliceMatchesSet covers the zero-padded ragged tail.
func TestPackSliceMatchesSet(t *testing.T) {
	for bits := uint(1); bits <= 64; bits++ {
		c := MustNew(bits)
		state := uint64(bits)
		for _, n := range []int{0, 1, 63, 64, 65, 3*ChunkSize + 17} {
			values := make([]uint64, n)
			for i := range values {
				values[i] = lcg(&state) & c.Mask()
			}
			got, want := c.PackSlice(values), setSlice(c, values)
			if len(got) != len(want) {
				t.Fatalf("bits=%d n=%d: %d words, want %d", bits, n, len(got), len(want))
			}
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("bits=%d n=%d: word %d = %#x, Set gives %#x", bits, n, w, got[w], want[w])
				}
			}
		}
	}
}

// TestPackPanicsOnOverflow: one value too wide anywhere in the chunk panics
// with Set's message and leaves the destination untouched.
func TestPackPanicsOnOverflow(t *testing.T) {
	for _, bits := range []uint{1, 7, 32, 33, 63} {
		c := MustNew(bits)
		for _, pos := range []int{0, 31, 63} {
			var in [ChunkSize]uint64
			bad := c.Mask() + 1
			in[pos] = bad
			data := make([]uint64, c.WordsFor(ChunkSize))
			func() {
				defer func() {
					want := fmt.Sprintf("bitpack: value %#x does not fit in %d bits", bad, bits)
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
						t.Errorf("bits=%d pos=%d: recovered %v, want %q", bits, pos, r, want)
					}
				}()
				c.Pack(data, 0, in[:])
			}()
			for w, v := range data {
				if v != 0 {
					t.Errorf("bits=%d pos=%d: word %d written before the panic", bits, pos, w)
				}
			}
		}
	}
}

// TestPackPanicsOnPartialChunk: Pack takes whole chunks only, at every
// width: a ragged run panics.
func TestPackPanicsOnPartialChunk(t *testing.T) {
	for _, bits := range []uint{7, 32, 64} {
		c := MustNew(bits)
		data := make([]uint64, c.WordsFor(2*ChunkSize))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d: Pack over %d elements did not panic", bits, ChunkSize+1)
				}
			}()
			c.Pack(data, 0, make([]uint64, ChunkSize+1))
		}()
	}
}

func BenchmarkPack4(b *testing.B)  { benchPack(b, 4) }
func BenchmarkPack16(b *testing.B) { benchPack(b, 16) }
func BenchmarkPack33(b *testing.B) { benchPack(b, 33) }
func BenchmarkPack64(b *testing.B) { benchPack(b, 64) }

// benchPack reports ns/elem for the chunk kernel next to the per-element
// Set loop over the same values ("set-ns/elem").
func benchPack(b *testing.B, width uint) {
	c := MustNew(width)
	const n = 1 << 14
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(i) & c.Mask()
	}
	data := make([]uint64, c.WordsFor(n))
	chunks := n / ChunkSize
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := i % chunks
			c.Pack(data, uint64(ch), src[ch*ChunkSize:(ch+1)*ChunkSize])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ChunkSize), "ns/elem")
	})
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := (i % chunks) * ChunkSize
			for j := base; j < base+ChunkSize; j++ {
				c.Set(data, uint64(j), src[j])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ChunkSize), "ns/elem")
	})
}
