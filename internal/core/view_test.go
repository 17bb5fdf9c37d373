package core

import (
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// wordsAsOK reports whether the snapshot has a typed view as E, and when
// it has, checks that the view is the array's length and that every
// element equals View.Get.
func wordsAsOK[E Word](t *testing.T, v *View, length uint64) bool {
	t.Helper()
	words, ok := WordsAs[E](v)
	if !ok {
		return false
	}
	if uint64(len(words)) != length {
		t.Fatalf("typed view holds %d elements, want the array's %d", len(words), length)
	}
	for i, w := range words {
		if got, want := uint64(w), v.Get(uint64(i)); got != want {
			t.Fatalf("typed view element %d = %#x, View.Get = %#x", i, got, want)
		}
	}
	return true
}

// typedViews returns which of the four element types the snapshot has a
// typed view as, by width.
func typedViews(t *testing.T, v *View, length uint64) map[uint]bool {
	t.Helper()
	return map[uint]bool{
		8:  wordsAsOK[uint8](t, v, length),
		16: wordsAsOK[uint16](t, v, length),
		32: wordsAsOK[uint32](t, v, length),
		64: wordsAsOK[uint64](t, v, length),
	}
}

// fillMixed writes values that use every bit of the width, so a view
// that read the wrong field or the wrong byte order would show.
func fillMixed(a *SmartArray) []uint64 {
	mask := a.Codec().Mask()
	values := make([]uint64, a.Length())
	x := uint64(0x9E3779B97F4A7C15)
	for i := range values {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		values[i] = x & mask
	}
	a.InitRange(0, 0, values)
	return values
}

// TestTypedWordView: WordsAs reads a BitPacked array in place at exactly
// its width — 8, 16, 32 or 64 bits — with every element equal to
// View.Get on ragged lengths, and refuses every other element type, every
// straddling width and every non-BitPacked layout. Under -race the payload
// is on the Go heap and the same checks run there (make race, make
// core-stress); otherwise it is mapped outside the heap.
func TestTypedWordView(t *testing.T) {
	mem := newMemory()
	lengths := []uint64{1, bitpack.ChunkSize - 1, 3*bitpack.ChunkSize + 8, 5*bitpack.ChunkSize + 17}
	for _, bits := range []uint{8, 16, 20, 32, 64} {
		for _, n := range lengths {
			a := mustAlloc(t, mem, Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
			fillMixed(a)
			mem.Pin()
			v := a.View(1)
			got := typedViews(t, &v, n)
			mem.Unpin()
			for w, ok := range got {
				if want := w == bits; ok != want {
					t.Errorf("bits=%d n=%d: typed view at %d bits ok=%v, want %v", bits, n, w, ok, want)
				}
			}
		}
	}
}

// TestTypedWordViewRefusesReencoded: after Reencode to any layout other
// than BitPacked no element type has a typed view, and a view taken
// under a pin before the swap still reads the old payload in place.
func TestTypedWordViewRefusesReencoded(t *testing.T) {
	const n = 4*bitpack.ChunkSize + 9
	for _, kind := range encoding.Kinds {
		if kind == encoding.BitPacked {
			continue
		}
		a := mustAlloc(t, newMemory(), Config{Length: n, Bits: 32, Placement: memsim.Interleaved})
		values := fillMixed(a)
		mem := a.Memory()
		mem.Pin()
		before := a.View(0)
		old, ok := WordsAs[uint32](&before)
		if !ok {
			t.Fatal("a 32-bit BitPacked array has no 32-bit typed view")
		}
		if _, err := a.Reencode(kind, 0); err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		after := a.View(0)
		for w, ok := range typedViews(t, &after, n) {
			if ok {
				t.Errorf("%v: typed view at %d bits ok after the re-encode", kind, w)
			}
		}
		for i, want := range values {
			if uint64(old[i]) != want {
				t.Fatalf("%v: pinned typed view element %d = %d, want %d", kind, i, old[i], want)
			}
		}
		mem.Unpin()
	}
}
