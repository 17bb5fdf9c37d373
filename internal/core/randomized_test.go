package core

import (
	"sync"
	"testing"
	"testing/quick"

	"smartarrays/internal/memsim"
)

func TestPermutationIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 63, 64, 65, 1000, 4096} {
		p := NewPermutation(n, 42)
		seen := make([]bool, n)
		for i := uint64(0); i < n; i++ {
			j := p.Apply(i)
			if j >= n {
				t.Fatalf("n=%d: Apply(%d) = %d out of range", n, i, j)
			}
			if seen[j] {
				t.Fatalf("n=%d: collision at %d", n, j)
			}
			seen[j] = true
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	p1 := NewPermutation(1000, 1)
	p2 := NewPermutation(1000, 2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if p1.Apply(i) == p2.Apply(i) {
			same++
		}
	}
	if same > 100 {
		t.Errorf("seeds produce nearly identical permutations (%d/1000 fixed)", same)
	}
}

func TestPermutationPanicsOnEmptyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPermutation(0, 1)
}

func TestRandomizedArrayRoundTrip(t *testing.T) {
	mem := newMemory()
	for _, bits := range []uint{10, 33, 64} {
		a := mustAlloc(t, mem, Config{Length: 500, Bits: bits, Placement: memsim.Interleaved})
		r := NewRandomized(a, 7)
		mask := a.Codec().Mask()
		for i := uint64(0); i < 500; i++ {
			r.Init(0, i, (i*3)&mask)
		}
		for i := uint64(0); i < 500; i++ {
			if got := r.GetFrom(1, i); got != (i*3)&mask {
				t.Fatalf("bits=%d: logical %d = %d, want %d", bits, i, got, (i*3)&mask)
			}
		}
		if r.Length() != 500 {
			t.Error("Length wrong")
		}
	}
}

func TestRandomizedSpreadsHotRange(t *testing.T) {
	mem := newMemory()
	// An interleaved array: a hot range inside one page is served by one
	// socket; randomization must spread it across both.
	a := mustAlloc(t, mem, Config{Length: 8 * memsim.PageWords, Bits: 64, Placement: memsim.Interleaved})
	r := NewRandomized(a, 3)
	plain, randomized := r.HotSpotPages(0, 128) // 128 hot neighbours, one page
	if plain != 1 {
		t.Errorf("plain hot range touches %d sockets, want 1", plain)
	}
	if randomized != 2 {
		t.Errorf("randomized hot range touches %d sockets, want 2", randomized)
	}
}

func TestInitAtomicConcurrent(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 512, Bits: 33, Placement: memsim.Replicated})
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(w); i < 512; i += writers {
				a.InitAtomic(0, i, i)
			}
		}(w)
	}
	wg.Wait()
	for s := 0; s < 2; s++ {
		for i := uint64(0); i < 512; i++ {
			if got := a.GetFrom(s, i); got != i {
				t.Fatalf("socket %d elem %d = %d, want %d", s, i, got, i)
			}
		}
	}
}

func TestInitAtomicPanicsOutOfRange(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 4, Bits: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.InitAtomic(0, 4, 1)
}

// Property: randomized round trip for arbitrary sizes and seeds.
func TestQuickRandomizedRoundTrip(t *testing.T) {
	mem := newMemory()
	f := func(seed uint64, size uint16) bool {
		n := uint64(size%2000) + 1
		a, err := Allocate(mem, Config{Length: n, Bits: 20})
		if err != nil {
			return false
		}
		defer a.Free()
		r := NewRandomized(a, seed)
		for i := uint64(0); i < n; i++ {
			r.Init(0, i, i&0xFFFFF)
		}
		for i := uint64(0); i < n; i++ {
			if r.GetFrom(0, i) != i&0xFFFFF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
