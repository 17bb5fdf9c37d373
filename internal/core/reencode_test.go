package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// reencodeFixture allocates a 12-bit array with runs-plus-noise content
// and returns the array with its plain shadow.
func reencodeFixture(t *testing.T, n uint64) (*SmartArray, []uint64) {
	t.Helper()
	a := mustAlloc(t, newMemory(), Config{Length: n, Bits: 12, Placement: memsim.Interleaved, Name: "reencode"})
	mask := a.Codec().Mask()
	values := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		v := (i / 37) * 2654435761 & mask // short runs of hash values
		values[i] = v
		a.Init(0, i, v)
	}
	return a, values
}

// TestReencodeCycleAllKinds migrates one array through every codec and
// back to native, checking the whole read surface on each representation.
func TestReencodeCycleAllKinds(t *testing.T) {
	const n = 5*bitpack.ChunkSize + 17
	a, values := reencodeFixture(t, n)
	var refSum uint64
	thr := a.Codec().Mask() / 3
	var refCount uint64
	for _, v := range values {
		refSum += v
		if v >= thr {
			refCount++
		}
	}

	cycle := append(append([]encoding.Kind{}, encoding.Kinds...), encoding.BitPacked)
	for _, kind := range cycle {
		traffic, err := a.Reencode(kind, 0)
		if err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		if got := a.EncodingKind(); got != kind {
			t.Fatalf("EncodingKind = %v, want %v", got, kind)
		}
		if traffic == 0 && kind != encoding.BitPacked {
			// First transition leaves BitPacked, so traffic must flow.
			t.Errorf("Reencode(%v) reported zero traffic", kind)
		}
		if got := ReduceRange(a, 0, 0, n, ReduceSum); got != refSum {
			t.Errorf("%v: ReduceRange sum = %d, want %d", kind, got, refSum)
		}
		replica := a.GetReplica(0)
		for _, i := range []uint64{0, 1, 36, 37, n / 2, n - 1} {
			if got := a.Get(replica, i); got != values[i] {
				t.Errorf("%v: Get(%d) = %d, want %d", kind, i, got, values[i])
			}
		}
		dec := a.DecodeAll()
		for i, v := range values {
			if dec[i] != v {
				t.Fatalf("%v: DecodeAll[%d] = %d, want %d", kind, i, dec[i], v)
			}
		}
		// Masked pipeline: predicate on the array, fold the selection.
		masks := make([]uint64, (n+bitpack.ChunkSize-1)/bitpack.ChunkSize)
		MaskRange(a, 0, 0, n, bitpack.CmpGe, thr, masks)
		if got := bitpack.PopcountMasks(masks); got != refCount {
			t.Errorf("%v: mask popcount = %d, want %d", kind, got, refCount)
		}
		var want uint64
		for _, v := range values {
			if v >= thr {
				want += v
			}
		}
		if got := ReduceRangeMasked(a, 0, 0, n, ReduceSum, masks); got != want {
			t.Errorf("%v: masked sum = %d, want %d", kind, got, want)
		}
	}

	// Repeat re-encode to the current kind is a free no-op.
	traffic, err := a.Reencode(encoding.BitPacked, 0)
	if err != nil || traffic != 0 {
		t.Errorf("no-op Reencode = (%d, %v), want (0, nil)", traffic, err)
	}
}

// TestReencodeStatsReflectRepresentation checks EncodingStats tracks the
// live representation (the re-encoder scores the current rep with it).
func TestReencodeStatsReflectRepresentation(t *testing.T) {
	a, _ := reencodeFixture(t, 4096)
	if cs := a.EncodingStats(); cs.Kind != encoding.BitPacked || cs.CodeBits != 12 {
		t.Fatalf("native stats = %+v, want bitpacked/12", cs)
	}
	if _, err := a.Reencode(encoding.RLE, 0); err != nil {
		t.Fatal(err)
	}
	cs := a.EncodingStats()
	if cs.Kind != encoding.RLE || cs.RunsPerElem == 0 {
		t.Fatalf("RLE stats = %+v, want rle with RunsPerElem > 0", cs)
	}
}

func TestReencodeFreedArrayFails(t *testing.T) {
	a, _ := reencodeFixture(t, 256)
	a.Free()
	if _, err := a.Reencode(encoding.RLE, 0); err == nil {
		t.Fatal("Reencode on freed array should fail")
	}
}

// TestReencodeUnderConcurrentScans migrates the representation while
// readers scan and random-access it — under -race this pins the
// snapshot-swap design: every reader finishes on the representation it
// loaded and every observed result is exact.
func TestReencodeUnderConcurrentScans(t *testing.T) {
	const n = 8 * bitpack.ChunkSize
	a, values := reencodeFixture(t, n)
	var refSum uint64
	for _, v := range values {
		refSum += v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := ReduceRange(a, 0, 0, n, ReduceSum); got != refSum {
					errs <- "scan mismatch"
					return
				}
				x = x*6364136223846793005 + 1442695040888963407
				i := x % n
				if got := a.GetFrom(0, i); got != values[i] {
					errs <- "get mismatch"
					return
				}
			}
		}(uint64(g) + 1)
	}

	cycle := append(append([]encoding.Kind{}, encoding.Kinds...), encoding.BitPacked)
	for round := 0; round < 8; round++ {
		for _, kind := range cycle {
			if _, err := a.Reencode(kind, 0); err != nil {
				t.Fatalf("round %d: Reencode(%v): %v", round, kind, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestReplicatedPayloadPerSocket pins that every codec's payload really
// lives in the placed region: each replica of a replicated array holds the
// codec's payload words and its socket reads through its own copy, so a
// word corrupted in replica 1 shows on socket 1 and nowhere else.
func TestReplicatedPayloadPerSocket(t *testing.T) {
	const n = 5*bitpack.ChunkSize + 17
	mem := newMemory()
	sockets := mem.Spec().Sockets
	for _, kind := range encoding.Kinds {
		a := mustAlloc(t, mem, Config{Length: n, Bits: 12, Placement: memsim.Replicated})
		// Sixteen distinct values: every 4-bit dictionary id is valid, so
		// flipping a bit of element 0's code still decodes.
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(i)/37%16*7 + 3
		}
		a.InitRange(0, 0, values)
		if _, err := a.Reencode(kind, 0); err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		want, err := a.build(kind, values)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sockets; s++ {
			replica, bound := a.GetReplica(s), a.View(s).codec.PayloadWords()
			if &replica[0] != &bound[0] || len(replica) != len(bound) {
				t.Fatalf("%v: socket %d codec does not read its replica", kind, s)
			}
			if !slices.Equal(replica, want.PayloadWords()) {
				t.Fatalf("%v: replica %d does not hold the codec's payload", kind, s)
			}
		}
		if got, wantBytes := a.FootprintBytes(), uint64(sockets)*want.PayloadBytes(); got != wantBytes || a.CompressedBytes() != want.PayloadBytes() {
			t.Fatalf("%v: footprint %d B, compressed %d B; want %d B = %d replicas x %d B",
				kind, got, a.CompressedBytes(), wantBytes, sockets, want.PayloadBytes())
		}

		a.Region().Replica(1)[0] ^= 1
		if got := a.GetFrom(1, 0); got == values[0] {
			t.Errorf("%v: socket 1 read %d, missing the corrupted word of its replica", kind, got)
		}
		if got := a.GetFrom(0, 0); got != values[0] {
			t.Errorf("%v: socket 0 read %d, want %d from its untouched replica", kind, got, values[0])
		}
	}
}

// TestMigrateUnderConcurrentScans moves the array between placements
// while readers scan and random-access it from both sockets: under -race
// this pins that Migrate publishes a new snapshot rather than rewriting
// the region readers are on, and every observed result is exact.
func TestMigrateUnderConcurrentScans(t *testing.T) {
	const n = 8 * bitpack.ChunkSize
	a, values := reencodeFixture(t, n)
	a.BuildZoneIndex()
	var refSum uint64
	for _, v := range values {
		refSum += v
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Uint64
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(socket int) {
			defer wg.Done()
			for i := uint64(0); ; i = (i + 97) % n {
				select {
				case <-stop:
					return
				default:
				}
				if got := ReduceRange(a, socket, 0, n, ReduceSum); got != refSum {
					errs <- "scan mismatch"
					return
				}
				if got := a.GetFrom(socket, i); got != values[i] {
					errs <- "get mismatch"
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	// Keep migrating until the readers have been at it for a while, so
	// their reads interleave with the swaps.
	for round := 0; round < 20 || reads.Load() < 400; round++ {
		for _, p := range []memsim.Placement{memsim.Replicated, memsim.SingleSocket, memsim.Interleaved, memsim.OSDefault} {
			if _, err := a.Migrate(p, round%2); err != nil {
				t.Fatalf("round %d: Migrate(%v): %v", round, p, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if a.ZoneIndex() == nil {
		t.Error("Migrate dropped the zone index")
	}
}

// TestMigrateToReplicatedPreservesData checks a migration into Replicated
// copies the payload: it reports traffic, socket 1 reads what was written
// from socket 0, and socket 1 now holds a page of its own.
func TestMigrateToReplicatedPreservesData(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: memsim.PageWords, Bits: 64, Placement: memsim.Interleaved})
	a.Init(0, 5, 42)
	traffic, err := a.Migrate(memsim.Replicated, 0)
	if err != nil {
		t.Fatal(err)
	}
	if traffic == 0 {
		t.Error("replication migration should report traffic")
	}
	if got := a.GetFrom(1, 5); got != 42 {
		t.Errorf("socket 1 elem 5 = %d, want 42", got)
	}
	if got := mem.UsedBytes(1); got != memsim.PageBytes {
		t.Errorf("socket1 used after migrate = %d, want %d", got, memsim.PageBytes)
	}
}

// TestMigrateNoopIsFree checks Migrate's traffic: nothing for the current
// placement, a copy per extra replica into Replicated, a move otherwise,
// nothing into OSDefault (pages are first-touched later).
func TestMigrateNoopIsFree(t *testing.T) {
	mem := newMemory()
	a := mustAlloc(t, mem, Config{Length: 1000, Bits: 33, Placement: memsim.Interleaved})
	bytes := a.CompressedBytes()
	sockets := uint64(mem.Spec().Sockets)
	for _, step := range []struct {
		p       memsim.Placement
		socket  int
		traffic uint64
	}{
		{memsim.Interleaved, 0, 0},
		{memsim.Replicated, 0, 2 * bytes * (sockets - 1)},
		{memsim.Replicated, 1, 0},
		{memsim.SingleSocket, 1, 2 * bytes},
		{memsim.SingleSocket, 1, 0},
		{memsim.SingleSocket, 0, 2 * bytes},
		{memsim.OSDefault, 0, 0},
	} {
		traffic, err := a.Migrate(step.p, step.socket)
		if err != nil || traffic != step.traffic {
			t.Fatalf("Migrate(%v, %d) = (%d, %v), want (%d, nil)", step.p, step.socket, traffic, err, step.traffic)
		}
		if a.Placement() != step.p {
			t.Fatalf("placement %v after Migrate(%v)", a.Placement(), step.p)
		}
	}
	if got := mem.TotalUsedBytes(); got != bytes {
		t.Errorf("memory in use after migrations = %d B, want the one copy's %d B", got, bytes)
	}
}

// TestMigrateOverCapacityFails checks a migration that does not fit leaves
// the array as it was: same placement, same accounting, same values.
func TestMigrateOverCapacityFails(t *testing.T) {
	mem := newMemory()
	mem.SetCapacityBytes(8 * memsim.PageBytes)
	filler, err := mem.Alloc(mem.CapacityBytes()/8-memsim.PageWords, memsim.SingleSocket, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer filler.Free()
	a := mustAlloc(t, mem, Config{Length: 2 * memsim.PageWords, Bits: 64, Placement: memsim.SingleSocket, Socket: 0})
	a.Init(0, 7, 42)
	if _, err := a.Migrate(memsim.Replicated, 0); err == nil {
		t.Fatal("migration exceeding socket 1's capacity should fail")
	}
	if a.Placement() != memsim.SingleSocket || mem.UsedBytes(0) != 2*memsim.PageBytes {
		t.Errorf("failed migration changed the array: %v, socket 0 holds %d B", a.Placement(), mem.UsedBytes(0))
	}
	if got := a.GetFrom(1, 7); got != 42 {
		t.Errorf("element 7 = %d after a failed migration, want 42", got)
	}
}

// TestRetireReencodeCyclesLeaveNothingMapped: fifty re-encode cycles over
// several arrays (every codec, zone indexes attached, placements that
// replicate), then Free, leave no payload mapped and nothing waiting in
// retirement: every retired representation was unmapped exactly once.
func TestRetireReencodeCyclesLeaveNothingMapped(t *testing.T) {
	mem := newMemory()
	const n = 5*bitpack.ChunkSize + 9
	var arrays []*SmartArray
	for i, p := range []memsim.Placement{memsim.Interleaved, memsim.Replicated, memsim.OSDefault, memsim.SingleSocket} {
		a, err := Allocate(mem, Config{Length: n, Bits: 12, Placement: p, Socket: 1})
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, n)
		for j := range values {
			values[j] = uint64(j/(i+3)) % 4000
		}
		a.InitRange(0, 0, values)
		a.BuildZoneIndex()
		arrays = append(arrays, a)
	}
	cycle := append(append([]encoding.Kind{}, encoding.Kinds...), encoding.BitPacked)
	for round := 0; round < 50; round++ {
		for i, a := range arrays {
			if _, err := a.Reencode(cycle[(round+i)%len(cycle)], 0); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if mem.MappedBytes() != mem.TotalUsedBytes() || mem.RetiredBytes() != 0 {
			t.Fatalf("round %d: mapped %d B, used %d B, retired %d B with no reader",
				round, mem.MappedBytes(), mem.TotalUsedBytes(), mem.RetiredBytes())
		}
	}
	for _, a := range arrays {
		a.Free()
	}
	if mem.MappedBytes() != 0 || mem.RetiredBytes() != 0 || mem.TotalUsedBytes() != 0 {
		t.Errorf("after Free: mapped %d B, retired %d B, used %d B; want 0",
			mem.MappedBytes(), mem.RetiredBytes(), mem.TotalUsedBytes())
	}
}

// TestPinnedViewSurvivesReencode: a View taken under a reader pin stays
// readable after a Reencode and a Migrate retire its representation, and
// the retired payload is unmapped at the Unpin, not before.
func TestPinnedViewSurvivesReencode(t *testing.T) {
	const n = 4*bitpack.ChunkSize + 3
	a, values := reencodeFixture(t, n)
	mem := a.Memory()
	mem.Pin()
	v := a.View(1)
	if _, err := a.Reencode(encoding.RLE, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Migrate(memsim.Replicated, 0); err != nil {
		t.Fatal(err)
	}
	if mem.RetiredBytes() == 0 {
		t.Fatal("a pinned reader's representation was unmapped")
	}
	for i, want := range values {
		if got := v.Get(uint64(i)); got != want {
			t.Fatalf("pinned view element %d = %d, want %d", i, got, want)
		}
	}
	mem.Unpin()
	if mem.RetiredBytes() != 0 || mem.MappedBytes() != mem.TotalUsedBytes() {
		t.Errorf("after Unpin: retired %d B, mapped %d B, used %d B", mem.RetiredBytes(), mem.MappedBytes(), mem.TotalUsedBytes())
	}
	var want uint64
	for _, x := range values {
		want += x
	}
	if got := ReduceRange(a, 1, 0, n, ReduceSum); got != want {
		t.Errorf("sum after the swaps = %d, want %d", got, want)
	}
}

// TestGetFromPinsAgainstReencode: GetFrom called outside any loop, in a
// tight loop beside back-to-back re-encodes, reads exact values. It loads
// the representation under a pin of its own; without it the retired
// payload is unmapped between the load and the read and the reader
// faults.
func TestGetFromPinsAgainstReencode(t *testing.T) {
	const n = 64 * bitpack.ChunkSize
	a, values := reencodeFixture(t, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, wrong atomic.Uint64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(g); ; i = (i + 4099) % n {
				select {
				case <-stop:
					return
				default:
				}
				if a.GetFrom(0, i) != values[i] {
					wrong.Add(1)
				}
				reads.Add(1)
			}
		}(g)
	}
	kinds := []encoding.Kind{encoding.RLE, encoding.BitPacked}
	for round := 0; round < 200 || reads.Load() < 100000; round++ {
		if _, err := a.Reencode(kinds[round%2], 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if wrong.Load() != 0 {
		t.Errorf("%d of %d reads returned a wrong value", wrong.Load(), reads.Load())
	}
}
