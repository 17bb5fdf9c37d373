package bitpack

import (
	"sync"
	"testing"
)

// lcg is a small deterministic value generator for the exhaustive sweeps.
func lcg(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state
}

// packedFixture packs n deterministic values at the given width, mixing
// pseudo-random values with boundary patterns (0, max, alternating) so
// exact-word-boundary and straddling elements carry non-trivial bits.
func packedFixture(t *testing.T, bits uint, n uint64) (Codec, []uint64, []uint64) {
	t.Helper()
	c := MustNew(bits)
	values := make([]uint64, n)
	state := uint64(bits)*2654435761 + n
	for i := range values {
		switch i % 5 {
		case 0:
			values[i] = c.Mask() // all ones: every bit of the slot set
		case 1:
			values[i] = 0
		case 2:
			values[i] = uint64(i) & c.Mask()
		default:
			values[i] = lcg(&state) & c.Mask()
		}
	}
	return c, values, c.PackSlice(values)
}

// TestFusedKernelsMatchReferenceAllWidths checks SumChunks, MaxChunks and
// MinChunks against per-element Get folds for every width 1..64 over
// several chunk ranges, so exact-word-boundary elements (widths dividing
// 64), straddling elements (all other widths), and the 32/64-bit fast
// paths are all covered.
func TestFusedKernelsMatchReferenceAllWidths(t *testing.T) {
	const chunks = 5
	const n = chunks * ChunkSize
	for bits := uint(1); bits <= 64; bits++ {
		c, _, data := packedFixture(t, bits, n)
		for _, cr := range [][2]uint64{{0, chunks}, {0, 0}, {1, 4}, {2, 3}, {4, 5}} {
			lo, hi := cr[0], cr[1]
			var wantSum, wantMax uint64
			wantMin := ^uint64(0)
			for i := lo * ChunkSize; i < hi*ChunkSize; i++ {
				v := c.Get(data, i)
				wantSum += v
				if v > wantMax {
					wantMax = v
				}
				if v < wantMin {
					wantMin = v
				}
			}
			if lo >= hi {
				wantMax = 0
				wantMin = ^uint64(0)
			}
			if got := c.SumChunks(data, lo, hi); got != wantSum {
				t.Fatalf("bits=%d chunks[%d,%d): SumChunks = %d, want %d", bits, lo, hi, got, wantSum)
			}
			if got := c.MaxChunks(data, lo, hi); got != wantMax {
				t.Fatalf("bits=%d chunks[%d,%d): MaxChunks = %d, want %d", bits, lo, hi, got, wantMax)
			}
			if got := c.MinChunks(data, lo, hi); got != wantMin {
				t.Fatalf("bits=%d chunks[%d,%d): MinChunks = %d, want %d", bits, lo, hi, got, wantMin)
			}
		}
	}
}

// TestSumChunksOverflowWraps: uint64 sums wrap like any Go sum.
func TestSumChunksOverflowWraps(t *testing.T) {
	c := MustNew(64)
	data := make([]uint64, ChunkSize)
	for i := range data {
		data[i] = ^uint64(0)
	}
	var want uint64
	for _, v := range data {
		want += v
	}
	if got := c.SumChunks(data, 0, 1); got != want {
		t.Errorf("SumChunks = %d, want %d", got, want)
	}
}

// TestRoundTripExhaustiveBoundaryElements round-trips every width with a
// ragged tail and verifies the elements that end exactly on a word
// boundary and those that straddle one.
func TestRoundTripExhaustiveBoundaryElements(t *testing.T) {
	const n = 3*ChunkSize + 17 // ragged tail
	for bits := uint(1); bits <= 64; bits++ {
		c, values, data := packedFixture(t, bits, n)
		if want := c.WordsFor(n); uint64(len(data)) != want {
			t.Fatalf("bits=%d: packed %d words, want %d", bits, len(data), want)
		}
		for i := uint64(0); i < n; i++ {
			if got := c.Get(data, i); got != values[i] {
				t.Fatalf("bits=%d: Get(%d) = %#x, want %#x", bits, i, got, values[i])
			}
		}
		got := unpackSlice(c, data, n)
		for i := uint64(0); i < n; i++ {
			if got[i] != values[i] {
				t.Fatalf("bits=%d: unpack[%d] = %#x, want %#x", bits, i, got[i], values[i])
			}
		}
	}
}

// TestSetDoesNotTouchFollowingWord: writing an element that ends exactly
// on a word boundary must leave the next word alone. The historic spill
// code read-modify-wrote the following word with a no-op mask, which is
// invisible to a single-threaded checker but races with a concurrent
// writer that owns that word — exactly what the parallel-init test below
// detects under -race.
func TestSetDoesNotTouchFollowingWord(t *testing.T) {
	// Width 16: element 3 occupies bits [48,64) of word 0 — it ends
	// exactly on the boundary to word 1.
	c := MustNew(16)
	data := make([]uint64, c.WordsFor(ChunkSize))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 1000; iter++ {
			c.Set(data, 3, uint64(iter)&c.Mask())
		}
	}()
	go func() {
		defer wg.Done()
		for iter := 0; iter < 1000; iter++ {
			c.Set(data, 4, uint64(iter)&c.Mask()) // first element of word 1
		}
	}()
	wg.Wait()
	if got := c.Get(data, 3); got != 999 {
		t.Errorf("element 3 = %d, want 999", got)
	}
	if got := c.Get(data, 4); got != 999 {
		t.Errorf("element 4 = %d, want 999", got)
	}
}

// TestParallelInitWordDisjointRanges runs concurrent Set over
// word-disjoint element ranges for every width that keeps word boundaries
// element-aligned. Disjoint ranges that do not share packed words must be
// safe to initialize in parallel (the documented contract); before the
// boundary fix, the writer of a range ending on a word boundary also
// touched the first word of the next range.
func TestParallelInitWordDisjointRanges(t *testing.T) {
	for _, bits := range []uint{1, 2, 4, 8, 16, 32, 64} {
		c := MustNew(bits)
		perWord := 64 / uint64(bits)
		const words = 8
		n := perWord * words
		data := make([]uint64, c.WordsFor(n))
		var wg sync.WaitGroup
		for w := uint64(0); w < words; w++ {
			wg.Add(1)
			go func(w uint64) {
				defer wg.Done()
				for i := w * perWord; i < (w+1)*perWord; i++ {
					c.Set(data, i, i&c.Mask())
				}
			}(w)
		}
		wg.Wait()
		for i := uint64(0); i < n; i++ {
			if got := c.Get(data, i); got != i&c.Mask() {
				t.Errorf("bits=%d: element %d = %d, want %d", bits, i, got, i&c.Mask())
			}
		}
	}
}
