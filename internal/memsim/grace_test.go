package memsim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// fillRegion allocates a region of words words on m and writes word i = i*7+1
// into every replica.
func fillRegion(t *testing.T, m *Memory, words uint64, p Placement) *Region {
	t.Helper()
	r, err := m.Alloc(words, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, replica := range r.AllReplicas() {
		for i := range replica {
			replica[i] = uint64(i)*7 + 1
		}
	}
	return r
}

// TestPinnedReaderSurvivesRetire: a reader that pinned before a region was
// freed reads correct values to the end, and the mapping goes — mapped
// bytes drop — only at its Unpin.
func TestPinnedReaderSurvivesRetire(t *testing.T) {
	m := newMem(t)
	const words = 3*PageWords + 5
	r := fillRegion(t, m, words, Replicated)
	footprint := r.FootprintBytes()
	if m.MappedBytes() != footprint || m.MappedBytes() != m.TotalUsedBytes() {
		t.Fatalf("mapped %d B, used %d B; want both %d", m.MappedBytes(), m.TotalUsedBytes(), footprint)
	}

	m.Pin()
	replica := r.Replica(1)
	for i := range replica[:words/2] {
		if replica[i] != uint64(i)*7+1 {
			t.Fatalf("word %d = %d before the free", i, replica[i])
		}
	}
	r.Free()
	if m.MappedBytes() != footprint || m.RetiredBytes() != footprint || m.TotalUsedBytes() != footprint {
		t.Errorf("pinned: mapped %d B, retired %d B, used %d B; want all %d",
			m.MappedBytes(), m.RetiredBytes(), m.TotalUsedBytes(), footprint)
	}
	for i := words / 2; i < words; i++ {
		if replica[i] != uint64(i)*7+1 {
			t.Fatalf("word %d = %d after the free", i, replica[i])
		}
	}
	m.Unpin()
	if m.MappedBytes() != 0 || m.RetiredBytes() != 0 || m.TotalUsedBytes() != 0 {
		t.Errorf("after Unpin: mapped %d B, retired %d B, used %d B; want 0",
			m.MappedBytes(), m.RetiredBytes(), m.TotalUsedBytes())
	}
}

// TestRetireWaitsForTheLastPin: with nested and concurrent pins, retired
// memory stays mapped until the last pin goes, and a free with no pin
// held unmaps at once.
func TestRetireWaitsForTheLastPin(t *testing.T) {
	m := newMem(t)
	a := fillRegion(t, m, PageWords, Interleaved)
	b := fillRegion(t, m, 2*PageWords, SingleSocket)
	m.Pin()
	m.Pin()
	a.Free()
	m.Unpin()
	if m.RetiredBytes() != PageBytes {
		t.Fatalf("one pin left: retired %d B, want %d", m.RetiredBytes(), PageBytes)
	}
	m.Unpin()
	if m.MappedBytes() != 2*PageBytes || m.RetiredBytes() != 0 {
		t.Fatalf("no pin: mapped %d B, retired %d B; want %d, 0", m.MappedBytes(), m.RetiredBytes(), 2*PageBytes)
	}
	b.Free()
	if m.MappedBytes() != 0 {
		t.Errorf("free with no pin: mapped %d B, want 0", m.MappedBytes())
	}
}

// TestRetireDoubleFreeUnmapsOnce: a second Free neither releases the
// simulated DRAM twice nor queues the region again (a second munmap of
// the same words would fail and panic).
func TestRetireDoubleFreeUnmapsOnce(t *testing.T) {
	m := newMem(t)
	r := fillRegion(t, m, 2*PageWords, Replicated)
	keep := fillRegion(t, m, PageWords, Interleaved)
	defer keep.Free()
	m.Pin()
	r.Free()
	r.Free()
	if m.RetiredBytes() != r.FootprintBytes() {
		t.Errorf("retired %d B after two frees, want %d", m.RetiredBytes(), r.FootprintBytes())
	}
	m.Unpin()
	r.Free()
	if m.TotalUsedBytes() != PageBytes || m.MappedBytes() != PageBytes || m.RetiredBytes() != 0 {
		t.Errorf("used %d B, mapped %d B, retired %d B; want %d, %d, 0",
			m.TotalUsedBytes(), m.MappedBytes(), m.RetiredBytes(), PageBytes, PageBytes)
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unpin without Pin did not panic")
		}
	}()
	newMem(t).Unpin()
}

// TestPinConcurrentRetire drives the grace rule's ordering: readers pin,
// load the current region and check every word, while a writer keeps
// publishing a fresh region and freeing the old one. A reader that could
// load a region after its unmapping faults; at the end nothing but the
// last region stays mapped.
func TestPinConcurrentRetire(t *testing.T) {
	m := newMem(t)
	const words = PageWords + 3
	var cur atomic.Pointer[Region]
	cur.Store(fillRegion(t, m, words, Interleaved))
	stop := make(chan struct{})
	var reads atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Pin()
				replica := cur.Load().Replica(0)
				for i, v := range replica {
					if v != uint64(i)*7+1 {
						errs <- "reader saw a wrong word"
						m.Unpin()
						return
					}
				}
				m.Unpin()
				reads.Add(1)
			}
		}()
	}
	for round := 0; round < 200 || reads.Load() < 200; round++ {
		old := cur.Swap(fillRegion(t, m, words, Interleaved))
		old.Free()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if want := uint64(words * 8); m.MappedBytes() != want || m.RetiredBytes() != 0 {
		t.Errorf("mapped %d B, retired %d B; want %d, 0", m.MappedBytes(), m.RetiredBytes(), want)
	}
	cur.Load().Free()
}

// TestRetiredMemoryCountsAgainstCapacity: a pin that is never dropped
// keeps every later free mapped, so retired regions keep their simulated
// DRAM: allocation is refused once live plus retired regions fill the
// capacity, instead of mapping more real memory, and the space comes back
// when the pin goes.
func TestRetiredMemoryCountsAgainstCapacity(t *testing.T) {
	m := newMem(t)
	const words = 2 * PageWords
	m.SetCapacityBytes(3 * words * 8)
	m.Pin()
	r := fillRegion(t, m, words, SingleSocket)
	for i := 0; i < 2; i++ {
		r.Free()
		r = fillRegion(t, m, words, SingleSocket)
	}
	if m.CanAlloc(words, SingleSocket, 0) {
		t.Error("CanAlloc approves a region while retired ones fill the capacity")
	}
	if _, err := m.Alloc(words, SingleSocket, 0); err == nil {
		t.Fatal("Alloc mapped a region while retired ones fill the capacity")
	}
	if got, want := m.MappedBytes(), uint64(3*words*8); got != want {
		t.Errorf("mapped %d B with the pin held, want %d", got, want)
	}
	m.Unpin()
	if m.RetiredBytes() != 0 || !m.CanAlloc(2*words, SingleSocket, 0) {
		t.Errorf("after Unpin: retired %d B, used %d B; want the retired space back", m.RetiredBytes(), m.TotalUsedBytes())
	}
	r.Free()
}
