package core

import (
	"fmt"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// eachRepresentation calls check on reduceFixture's n-element array at
// every width 1..64, then on the same array after Reencode to every
// encoding.Kind, so the range reads decode every representation.
func eachRepresentation(t *testing.T, n uint64, check func(name string, bits uint, a *SmartArray, values []uint64)) {
	t.Helper()
	for bits := uint(1); bits <= 64; bits++ {
		a, values := reduceFixture(t, bits, n)
		check(fmt.Sprintf("bits=%d", bits), bits, a, values)
		for _, kind := range encoding.Kinds {
			if _, err := a.Reencode(kind, 0); err != nil {
				t.Fatalf("bits=%d: Reencode(%v): %v", bits, kind, err)
			}
			check(fmt.Sprintf("bits=%d %v", bits, kind), bits, a, values)
		}
	}
}

func TestGatherMatchesGetAllWidths(t *testing.T) {
	const n = 3*bitpack.ChunkSize + 21
	eachRepresentation(t, n, func(name string, bits uint, a *SmartArray, values []uint64) {
		idx := make([]uint64, 150)
		state := uint64(bits) * 0xD1B54A32D192ED03
		for i := range idx {
			state = state*6364136223846793005 + 1442695040888963407
			idx[i] = state % n
		}
		out := make([]uint64, len(idx))
		Gather(a, 0, idx, out)
		for i, x := range idx {
			if out[i] != values[x] {
				t.Fatalf("%s: Gather out[%d] (idx %d) = %#x, want %#x", name, i, x, out[i], values[x])
			}
		}
	})
}

func TestGatherPanicsOutOfRange(t *testing.T) {
	a, _ := reduceFixture(t, 17, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	Gather(a, 0, []uint64{5, 100}, make([]uint64, 2))
}

func TestReadRangeAllWidths(t *testing.T) {
	const n = 3*bitpack.ChunkSize + 21
	eachRepresentation(t, n, func(name string, _ uint, a *SmartArray, values []uint64) {
		for _, r := range reduceRanges(n) {
			lo, hi := r[0], r[1]
			out := make([]uint64, hi-lo)
			ReadRange(a, 0, lo, hi, out)
			for i := range out {
				if want := values[lo+uint64(i)]; out[i] != want {
					t.Fatalf("%s [%d,%d): out[%d] = %#x, want %#x", name, lo, hi, i, out[i], want)
				}
			}
		}
	})
}
