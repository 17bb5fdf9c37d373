package core

import (
	"testing"
	"testing/quick"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

func newMemory() *memsim.Memory { return memsim.New(machine.X52Small()) }

func mustAlloc(t *testing.T, mem *memsim.Memory, cfg Config) *SmartArray {
	t.Helper()
	a, err := Allocate(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Free)
	return a
}

func TestAllocateValidation(t *testing.T) {
	mem := newMemory()
	if _, err := Allocate(mem, Config{Length: 0, Bits: 64}); err == nil {
		t.Error("zero length should fail")
	}
	if _, err := Allocate(mem, Config{Length: 10, Bits: 0}); err == nil {
		t.Error("zero bits should fail")
	}
	if _, err := Allocate(mem, Config{Length: 10, Bits: 65}); err == nil {
		t.Error("65 bits should fail")
	}
	if _, err := Allocate(mem, Config{Length: 10, Bits: 64, Placement: memsim.SingleSocket, Socket: 7}); err == nil {
		t.Error("bad socket should fail")
	}
}

func TestInitGetRoundTripAllPlacements(t *testing.T) {
	mem := newMemory()
	for _, p := range placements {
		for _, bits := range []uint{10, 32, 33, 64} {
			a := mustAlloc(t, mem, Config{Length: 200, Bits: bits, Placement: p})
			mask := a.Codec().Mask()
			for i := uint64(0); i < 200; i++ {
				a.Init(0, i, (i*2654435761)&mask)
			}
			for s := 0; s < 2; s++ {
				replica := a.GetReplica(s)
				for i := uint64(0); i < 200; i++ {
					want := (i * 2654435761) & mask
					if got := a.Get(replica, i); got != want {
						t.Fatalf("placement=%v bits=%d socket=%d: Get(%d) = %d, want %d",
							p, bits, s, i, got, want)
					}
				}
			}
		}
	}
}

func TestInitWritesAllReplicas(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 8, Bits: 64, Placement: memsim.Replicated})
	a.Init(1, 3, 99)
	if got := a.Region().Replica(0)[3]; got != 99 {
		t.Errorf("replica0[3] = %d, want 99", got)
	}
	if got := a.Region().Replica(1)[3]; got != 99 {
		t.Errorf("replica1[3] = %d, want 99", got)
	}
}

// TestEveryWriterInvalidates holds every writer to the one write
// contract: on a zeroed array with a zone index, writing one nonzero
// element drops the index, moves Generation by exactly 1 and is seen by
// the range kernels (which would otherwise prune the chunk on the stale
// all-zero bounds).
func TestEveryWriterInvalidates(t *testing.T) {
	const index, value = 5, 99
	writers := []struct {
		name  string
		write func(a *SmartArray)
	}{
		{"Init", func(a *SmartArray) { a.Init(0, index, value) }},
		{"InitAtomic", func(a *SmartArray) { a.InitAtomic(0, index, value) }},
		{"InitRange", func(a *SmartArray) { a.InitRange(0, index, []uint64{value}) }},
		{"WriteAs", func(a *SmartArray) {
			w, ok := WriteAs[uint16](a, 0, index, index+1)
			if !ok {
				t.Fatal("WriteAs: no write view on a 16-bit BitPacked array")
			}
			w.Words[0] = value
			w.Done()
		}},
	}
	mem := newMemory()
	for _, wr := range writers {
		a := mustAlloc(t, mem, Config{Length: 1000, Bits: 16, Placement: memsim.Replicated})
		a.BuildZoneIndex()
		before := a.Generation()
		wr.write(a)
		if a.ZoneIndex() != nil {
			t.Errorf("%s: zone index still attached after a write", wr.name)
		}
		if got := a.Generation(); got != before+1 {
			t.Errorf("%s: Generation %d -> %d, want +1", wr.name, before, got)
		}
		for s := 0; s < 2; s++ {
			if got := ReduceRange(a, s, 0, a.Length(), ReduceMax); got != value {
				t.Errorf("%s: socket %d max = %d, want %d", wr.name, s, got, value)
			}
			if got := ReduceRange(a, s, 0, a.Length(), ReduceSum); got != value {
				t.Errorf("%s: socket %d sum = %d, want %d", wr.name, s, got, value)
			}
		}
	}
}

func TestGetPanicsOutOfRange(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 4, Bits: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Get(a.GetReplica(0), 4)
}

func TestInitPanicsOutOfRange(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 4, Bits: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Init(0, 4, 1)
}

func TestAllocateForPicksMinBits(t *testing.T) {
	mem := newMemory()
	a, err := AllocateFor(mem, []uint64{1, 7, 1 << 30}, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free()
	if got := a.Bits(); got != 31 {
		t.Errorf("Bits = %d, want 31", got)
	}
	if got := a.GetFrom(0, 2); got != 1<<30 {
		t.Errorf("elem 2 = %d, want %d", got, uint64(1)<<30)
	}
}

func TestFootprintAndCompression(t *testing.T) {
	mem := newMemory()
	// 128 elements at 33 bits: 2 chunks x 33 words = 66 words = 528 bytes.
	a := mustAlloc(t, mem, Config{Length: 128, Bits: 33, Placement: memsim.Replicated})
	if got := a.CompressedBytes(); got != 528 {
		t.Errorf("CompressedBytes = %d, want 528", got)
	}
	if got := a.UncompressedBytes(); got != 1024 {
		t.Errorf("UncompressedBytes = %d, want 1024", got)
	}
	if got := a.FootprintBytes(); got != 2*528 {
		t.Errorf("FootprintBytes = %d, want %d (2 replicas)", got, 2*528)
	}
}

func TestWordOf(t *testing.T) {
	mem := newMemory()
	a64 := mustAlloc(t, mem, Config{Length: 100, Bits: 64})
	if got := a64.WordOf(37); got != 37 {
		t.Errorf("64-bit WordOf(37) = %d, want 37", got)
	}
	a32 := mustAlloc(t, mem, Config{Length: 100, Bits: 32})
	if got := a32.WordOf(37); got != 18 {
		t.Errorf("32-bit WordOf(37) = %d, want 18", got)
	}
	a33 := mustAlloc(t, mem, Config{Length: 200, Bits: 33})
	// Element 64 starts chunk 1, word 33.
	if got := a33.WordOf(64); got != 33 {
		t.Errorf("33-bit WordOf(64) = %d, want 33", got)
	}
	// Element 1 is bits [33,66): starts in word 0.
	if got := a33.WordOf(1); got != 0 {
		t.Errorf("33-bit WordOf(1) = %d, want 0", got)
	}
	// Element 2 is bits [66,99): starts in word 1.
	if got := a33.WordOf(2); got != 1 {
		t.Errorf("33-bit WordOf(2) = %d, want 1", got)
	}
}

func TestWordRange(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 300, Bits: 33})
	lo, hi := a.WordRange(0, 300)
	if lo != 0 {
		t.Errorf("lo = %d, want 0", lo)
	}
	// Element 299: chunk 4, bitInChunk = (299%64)*33 = 43*33 = 1419,
	// word = 4*33 + 1419/64 = 132+22 = 154; range end 155.
	if hi != 155 {
		t.Errorf("hi = %d, want 155", hi)
	}
	if l, h := a.WordRange(5, 5); l != 0 || h != 0 {
		t.Errorf("empty range = [%d,%d), want [0,0)", l, h)
	}
}

func TestMigratePreservesContents(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 100, Bits: 33, Placement: memsim.Interleaved})
	for i := uint64(0); i < 100; i++ {
		a.Init(0, i, i)
	}
	if _, err := a.Migrate(memsim.Replicated, 0); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		for i := uint64(0); i < 100; i++ {
			if got := a.GetFrom(s, i); got != i {
				t.Fatalf("after migrate, socket %d elem %d = %d", s, i, got)
			}
		}
	}
}

func TestAccountScanChargesBytesAndInstructions(t *testing.T) {
	mem := newMemory()
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	a := mustAlloc(t, mem, Config{Length: 1024, Bits: 64, Placement: memsim.SingleSocket, Socket: 1})
	a.AccountScan(sh, 0, 1024)
	snap := f.Snapshot()
	if got := snap.Sockets[0].ReadBytesFrom[1]; got != 1024*8 {
		t.Errorf("bytes = %d, want %d", got, 1024*8)
	}
	if got := sh.Instructions; got == 0 {
		t.Error("instructions not charged")
	}
	if got := sh.Accesses; got != 1024 {
		t.Errorf("accesses = %d, want 1024", got)
	}
}

func TestAccountScanCompressedChargesFewerBytesMoreInstructions(t *testing.T) {
	mem := newMemory()
	f := counters.NewFabric(2)
	shU := f.NewShard(0)
	shC := f.NewShard(0)
	u := mustAlloc(t, mem, Config{Length: 64 * 1024, Bits: 64})
	c := mustAlloc(t, mem, Config{Length: 64 * 1024, Bits: 10})
	u.AccountScan(shU, 0, 64*1024)
	c.AccountScan(shC, 0, 64*1024)
	if shC.LocalReadBytes >= shU.LocalReadBytes {
		t.Errorf("compressed bytes %d should be < uncompressed %d", shC.LocalReadBytes, shU.LocalReadBytes)
	}
	if shC.Instructions <= shU.Instructions {
		t.Errorf("compressed instructions %d should be > uncompressed %d", shC.Instructions, shU.Instructions)
	}
}

func TestAccountInitReplicated(t *testing.T) {
	mem := newMemory()
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	a := mustAlloc(t, mem, Config{Length: 1024, Bits: 64, Placement: memsim.Replicated})
	a.AccountInit(sh, 0, 1024)
	if got := sh.LocalWriteBytes + sh.RemoteWriteBytes; got != 2*1024*8 {
		t.Errorf("write bytes = %d, want %d (both replicas)", got, 2*1024*8)
	}
}

func TestAccountGather(t *testing.T) {
	mem := newMemory()
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	a := mustAlloc(t, mem, Config{Length: 1 << 20, Bits: 64, Placement: memsim.Interleaved})
	a.AccountGather(sh, 1000, 1)
	if got := sh.RandomAccesses; got != 1000 {
		t.Errorf("random accesses = %d, want 1000", got)
	}
	if got := sh.LocalReadBytes + sh.RemoteReadBytes; got < 1000*8 {
		t.Errorf("random bytes = %d, want >= payload", got)
	}
}

// Property: Init/Get round-trips match a reference slice for arbitrary
// widths and placements.
func TestQuickSmartArrayModel(t *testing.T) {
	mem := newMemory()
	f := func(vals []uint64, width uint8, placement uint8) bool {
		bits := uint(width%64) + 1
		p := placements[int(placement)%len(placements)]
		if len(vals) == 0 {
			vals = []uint64{0}
		}
		if len(vals) > 200 {
			vals = vals[:200]
		}
		a, err := Allocate(mem, Config{Length: uint64(len(vals)), Bits: bits, Placement: p})
		if err != nil {
			return false
		}
		defer a.Free()
		mask := a.Codec().Mask()
		for i, v := range vals {
			a.Init(0, uint64(i), v&mask)
		}
		for i, v := range vals {
			if a.GetFrom(1, uint64(i)) != v&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestChunkAlignmentInvariant(t *testing.T) {
	// The layout invariant behind the paper's chunking: a chunk of 64
	// elements at b bits occupies exactly b words for every b.
	for b := uint(1); b <= 64; b++ {
		c := bitpack.MustNew(b)
		if got := c.WordsPerChunk(); got != uint64(b) {
			t.Errorf("bits=%d: words per chunk = %d, want %d", b, got, b)
		}
	}
}

// placements lists every placement policy.
var placements = []memsim.Placement{memsim.OSDefault, memsim.SingleSocket, memsim.Interleaved, memsim.Replicated}
