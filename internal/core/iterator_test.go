package core

import (
	"testing"
	"testing/quick"

	"smartarrays/internal/memsim"
)

func fillSequential(t *testing.T, a *SmartArray) {
	t.Helper()
	mask := a.Codec().Mask()
	for i := uint64(0); i < a.Length(); i++ {
		a.Init(0, i, (i*7+3)&mask)
	}
}

func TestIteratorConcreteTypes(t *testing.T) {
	mem := newMemory()
	cases := []struct {
		bits uint
		want string
	}{
		{64, "*core.U64Iterator"},
		{32, "*core.U32Iterator"},
		{33, "*core.CompressedIterator"},
		{1, "*core.CompressedIterator"},
	}
	for _, c := range cases {
		a := mustAlloc(t, mem, Config{Length: 128, Bits: c.bits})
		it := NewIterator(a, 0, 0)
		var got string
		switch it.(type) {
		case *U64Iterator:
			got = "*core.U64Iterator"
		case *U32Iterator:
			got = "*core.U32Iterator"
		case *CompressedIterator:
			got = "*core.CompressedIterator"
		}
		if got != c.want {
			t.Errorf("bits=%d: iterator type %s, want %s", c.bits, got, c.want)
		}
	}
}

func TestIteratorScanMatchesGet(t *testing.T) {
	mem := newMemory()
	for _, bits := range []uint{1, 10, 31, 32, 33, 50, 63, 64} {
		a := mustAlloc(t, mem, Config{Length: 200, Bits: bits})
		fillSequential(t, a)
		it := NewIterator(a, 0, 0)
		replica := a.GetReplica(0)
		for i := uint64(0); i < a.Length(); i++ {
			if got, want := it.Get(), a.Get(replica, i); got != want {
				t.Fatalf("bits=%d: it.Get() at %d = %d, want %d", bits, i, got, want)
			}
			it.Next()
		}
	}
}

func TestIteratorResetMidChunk(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 300, Bits: 33})
	fillSequential(t, a)
	it := NewIterator(a, 0, 0)
	replica := a.GetReplica(0)

	it.Reset(100)
	if got, want := it.Get(), a.Get(replica, 100); got != want {
		t.Errorf("after Reset(100): %d, want %d", got, want)
	}
	it.Reset(5) // back into an earlier chunk
	if got, want := it.Get(), a.Get(replica, 5); got != want {
		t.Errorf("after Reset(5): %d, want %d", got, want)
	}
	it.Reset(6) // same chunk: must not lose the buffer
	if got, want := it.Get(), a.Get(replica, 6); got != want {
		t.Errorf("after Reset(6): %d, want %d", got, want)
	}
}

func TestIteratorUsesReaderReplica(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 64, Bits: 64, Placement: memsim.Replicated})
	// Divergent replicas (possible only through raw region access).
	a.Region().Replica(0)[0] = 111
	a.Region().Replica(1)[0] = 222
	if got := NewIterator(a, 0, 0).Get(); got != 111 {
		t.Errorf("socket0 iterator = %d, want 111", got)
	}
	if got := NewIterator(a, 1, 0).Get(); got != 222 {
		t.Errorf("socket1 iterator = %d, want 222", got)
	}
}

func TestSumRange(t *testing.T) {
	mem := newMemory()
	for _, bits := range []uint{10, 32, 33, 64} {
		a := mustAlloc(t, mem, Config{Length: 500, Bits: bits})
		mask := a.Codec().Mask()
		var want uint64
		for i := uint64(0); i < 500; i++ {
			v := (i * 31) & mask
			a.Init(0, i, v)
			if i >= 100 && i < 400 {
				want += v
			}
		}
		if got := ReduceRange(a, 1, 100, 400, ReduceSum); got != want {
			t.Errorf("bits=%d: ReduceRange sum = %d, want %d", bits, got, want)
		}
	}
}

func TestSumRangeEmpty(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 10, Bits: 64})
	if got := ReduceRange(a, 0, 5, 5, ReduceSum); got != 0 {
		t.Errorf("empty ReduceRange sum = %d, want 0", got)
	}
}

func TestMapMatchesIterator(t *testing.T) {
	mem := newMemory()
	for _, bits := range []uint{10, 32, 33, 64} {
		a := mustAlloc(t, mem, Config{Length: 333, Bits: bits})
		fillSequential(t, a)
		replica := a.GetReplica(0)
		var visited uint64
		Map(a, 0, 50, 300, func(i, v uint64) {
			if want := a.Get(replica, i); v != want {
				t.Fatalf("bits=%d: Map at %d = %d, want %d", bits, i, v, want)
			}
			visited++
		})
		if visited != 250 {
			t.Errorf("bits=%d: visited %d, want 250", bits, visited)
		}
	}
}

func TestMapEmptyRange(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 10, Bits: 33})
	Map(a, 0, 5, 5, func(i, v uint64) { t.Error("fn called for empty range") })
}

// Property: for any width, an iterator scan from a random start equals the
// reference slice contents.
func TestQuickIteratorScan(t *testing.T) {
	mem := newMemory()
	f := func(width uint8, start uint16) bool {
		bits := uint(width%64) + 1
		const n = 400
		a, err := Allocate(mem, Config{Length: n, Bits: bits})
		if err != nil {
			return false
		}
		defer a.Free()
		mask := a.Codec().Mask()
		ref := make([]uint64, n)
		for i := range ref {
			ref[i] = (uint64(i)*2654435761 + 17) & mask
			a.Init(0, uint64(i), ref[i])
		}
		lo := uint64(start) % n
		it := NewIterator(a, 0, lo)
		for i := lo; i < n; i++ {
			if it.Get() != ref[i] {
				return false
			}
			it.Next()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
