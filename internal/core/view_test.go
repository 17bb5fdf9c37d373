package core

import (
	"fmt"
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

// writeViewMatches writes values over [lo, lo+len(values)) of a fresh
// bits-wide array through WriteAs[E] from socket writer, and holds the
// result to the per-element Init loop over the same values: before Done
// no other replica has moved; after it every replica of every placement
// is word-identical to the Init loop's, the OSDefault first-touch page
// map is InitRange's, Generation went up by exactly 1 (0 for an empty
// range) and an attached zone index is gone (kept by an empty range).
func writeViewMatches[E Word](t *testing.T, mem *memsim.Memory, p memsim.Placement, lo uint64, values []uint64) {
	t.Helper()
	const length = 1500 // three pages at 64 bits
	const writer = 1    // untouched pages read as socket 0
	bits := wordBits[E]()
	name := fmt.Sprintf("bits=%d %v lo=%d n=%d", bits, p, lo, len(values))
	cfg := Config{Length: length, Bits: bits, Placement: p}
	initLoop, initRange, got := mustAlloc(t, mem, cfg), mustAlloc(t, mem, cfg), mustAlloc(t, mem, cfg)
	for _, a := range []*SmartArray{initLoop, initRange, got} {
		dirty(a, uint64(bits))
	}
	for i, v := range values {
		initLoop.Init(writer, lo+uint64(i), v)
	}
	initRange.InitRange(writer, lo, values)

	got.BuildZoneIndex()
	before := got.Generation()
	replicas := got.Region().AllReplicas()
	var untouched [][]uint64 // every replica but the first, as dirty left it
	for _, replica := range replicas[1:] {
		untouched = append(untouched, append([]uint64(nil), replica...))
	}
	hi := lo + uint64(len(values))
	w, ok := WriteAs[E](got, writer, lo, hi)
	if !ok {
		t.Fatalf("%s: no write view on a BitPacked array at its width", name)
	}
	if uint64(len(w.Words)) != hi-lo {
		t.Fatalf("%s: write view holds %d elements, want %d", name, len(w.Words), hi-lo)
	}
	for i, v := range values {
		w.Words[i] = E(v)
	}
	for r, old := range untouched {
		for i, word := range old {
			if replicas[r+1][i] != word {
				t.Fatalf("%s: replica %d word %d moved before Done", name, r+1, i)
			}
		}
	}
	w.Done()

	for r, wr := range initLoop.Region().AllReplicas() {
		for i, word := range wr {
			if replicas[r][i] != word {
				t.Fatalf("%s: replica %d word %d = %#x, Init loop gives %#x", name, r, i, replicas[r][i], word)
			}
		}
	}
	for word := uint64(0); word < got.Region().Words(); word += memsim.PageWords {
		if g, want := got.Region().HomeSocket(word, 0), initRange.Region().HomeSocket(word, 0); g != want {
			t.Fatalf("%s: page of word %d homed on socket %d, InitRange homes it on %d", name, word, g, want)
		}
	}
	switch after := got.Generation(); {
	case len(values) == 0 && (after != before || got.ZoneIndex() == nil):
		t.Fatalf("%s: an empty write view is a no-op (generation %d -> %d)", name, before, after)
	case len(values) > 0 && after != before+1:
		t.Fatalf("%s: generation %d -> %d, want one revision per call", name, before, after)
	case len(values) > 0 && got.ZoneIndex() != nil:
		t.Fatalf("%s: zone index survived a write", name)
	}
}

// TestTypedWriteView: WriteAs at 8, 16, 32 and 64 bits, on ranges on and
// off the chunk grid, over every placement, leaves the array as the Init
// loop and InitRange do (writeViewMatches), Done filling every replica of
// a Replicated array. It refuses a width other than E's, a straddling
// width and a re-encoded array, without moving Generation, and panics on
// a range out of bounds. Under -race the payload is on the Go heap (make
// race, make core-stress); otherwise it is mapped outside the heap.
func TestTypedWriteView(t *testing.T) {
	mem := newMemory()
	for _, p := range placements {
		for _, lo := range []uint64{0, 64, 37, 500} {
			for _, n := range []uint64{0, 1, 63, 64, 65, 5*64 + 17, 900} {
				values := make([]uint64, n)
				for i := range values {
					values[i] = (lo + uint64(i) + 1) * 0x9E3779B97F4A7C15
				}
				masked := func(bits uint) []uint64 {
					out := make([]uint64, n)
					for i, v := range values {
						out[i] = v & bitpack.MustNew(bits).Mask()
					}
					return out
				}
				writeViewMatches[uint8](t, mem, p, lo, masked(8))
				writeViewMatches[uint16](t, mem, p, lo, masked(16))
				writeViewMatches[uint32](t, mem, p, lo, masked(32))
				writeViewMatches[uint64](t, mem, p, lo, values)
			}
		}
	}

	refused := func(name string, ok bool) {
		t.Helper()
		if ok {
			t.Errorf("%s: write view ok", name)
		}
	}
	for _, bits := range []uint{8, 16, 20, 32, 64} {
		a := mustAlloc(t, mem, Config{Length: 300, Bits: bits, Placement: memsim.Replicated})
		before := a.Generation()
		for _, w := range []uint{8, 16, 32, 64} {
			if w == bits {
				continue
			}
			var ok bool
			switch w {
			case 8:
				_, ok = WriteAs[uint8](a, 0, 0, 100)
			case 16:
				_, ok = WriteAs[uint16](a, 0, 0, 100)
			case 32:
				_, ok = WriteAs[uint32](a, 0, 0, 100)
			default:
				_, ok = WriteAs[uint64](a, 0, 0, 100)
			}
			refused(fmt.Sprintf("%d-bit array as %d bits", bits, w), ok)
		}
		if a.Generation() != before {
			t.Errorf("%d-bit array: a refused write view moved Generation %d -> %d", bits, before, a.Generation())
		}
	}
	for _, kind := range encoding.Kinds {
		if kind == encoding.BitPacked {
			continue
		}
		a := mustAlloc(t, mem, Config{Length: 300, Bits: 64, Placement: memsim.Interleaved})
		fillMixed(a)
		if _, err := a.Reencode(kind, 0); err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		before := a.Generation()
		_, ok := WriteAs[uint64](a, 0, 0, 100)
		refused(fmt.Sprintf("array re-encoded %v", kind), ok)
		if a.Generation() != before {
			t.Errorf("%v: a refused write view moved Generation %d -> %d", kind, before, a.Generation())
		}
	}

	a := mustAlloc(t, mem, Config{Length: 300, Bits: 64})
	for _, r := range [][2]uint64{{0, 301}, {200, 100}, {301, 301}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WriteAs over [%d,%d) of 300 elements: no panic", r[0], r[1])
				}
			}()
			WriteAs[uint64](a, 0, r[0], r[1])
		}()
	}
}
