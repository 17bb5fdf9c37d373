package interop

import (
	"testing"

	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

func newEP() *EntryPoints {
	return NewEntryPoints(memsim.New(machine.X52Small()))
}

func allocFilled(t *testing.T, ep *EntryPoints, n uint64, bits uint) int64 {
	t.Helper()
	h, err := ep.SmartArrayAllocate(n, bits, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := ep.SmartArrayInit(h, 0, i, i%(1<<bits-1)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestEntryPointsLifecycle(t *testing.T) {
	ep := newEP()
	h := allocFilled(t, ep, 100, 33)
	if n, err := ep.SmartArrayLength(h); err != nil || n != 100 {
		t.Errorf("Length = %d, %v; want 100", n, err)
	}
	if b, err := ep.SmartArrayBits(h); err != nil || b != 33 {
		t.Errorf("Bits = %d, %v; want 33", b, err)
	}
	if v, err := ep.SmartArrayGet(h, 1, 42); err != nil || v != 42 {
		t.Errorf("Get(42) = %d, %v; want 42", v, err)
	}
	if err := ep.SmartArrayFree(h); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.SmartArrayGet(h, 0, 0); err == nil {
		t.Error("use after free should fail")
	}
	if a, it := ep.Registry().Counts(); a != 0 || it != 0 {
		t.Errorf("leaked handles: %d arrays, %d iterators", a, it)
	}
}

func TestGetBitsSpecialization(t *testing.T) {
	ep := newEP()
	for _, bits := range []uint{10, 32, 33, 64} {
		h := allocFilled(t, ep, 200, bits)
		for _, idx := range []uint64{0, 1, 63, 64, 65, 199} {
			want, _ := ep.SmartArrayGet(h, 0, idx)
			got, err := ep.SmartArrayGetBits(h, 0, idx, bits)
			if err != nil || got != want {
				t.Errorf("bits=%d idx=%d: GetBits = %d, %v; want %d", bits, idx, got, err, want)
			}
		}
		if _, err := ep.SmartArrayGetBits(h, 0, 0, bits+1); err == nil {
			t.Errorf("bits=%d: mismatched profile should fail", bits)
		}
	}
}

func TestIteratorEntryPoints(t *testing.T) {
	ep := newEP()
	h := allocFilled(t, ep, 300, 33)
	ih, err := ep.IteratorNew(h, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(10); i < 300; i++ {
		got, err := ep.IteratorGet(ih)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ep.SmartArrayGet(h, 0, i)
		if got != want {
			t.Fatalf("iterator at %d = %d, want %d", i, got, want)
		}
		if err := ep.IteratorNext(ih); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.IteratorReset(ih, 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := ep.IteratorGet(ih); v != 5 {
		t.Errorf("after reset = %d, want 5", v)
	}
	ep.IteratorFree(ih)
	if _, err := ep.IteratorGet(ih); err == nil {
		t.Error("freed iterator should fail")
	}
}

func TestUnsafeWords(t *testing.T) {
	ep := newEP()
	h := allocFilled(t, ep, 64, 64)
	words, err := ep.UnsafeWords(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if words[10] != 10 {
		t.Errorf("raw word 10 = %d, want 10", words[10])
	}
}

func TestRegistryUnknownHandles(t *testing.T) {
	ep := newEP()
	if _, err := ep.SmartArrayGet(999, 0, 0); err == nil {
		t.Error("unknown array handle should fail")
	}
	if _, err := ep.IteratorGet(999); err == nil {
		t.Error("unknown iterator handle should fail")
	}
	if _, err := ep.SmartArrayAllocate(10, 99, memsim.Interleaved, 0); err == nil {
		t.Error("bad width should propagate")
	}
}

func TestJNIRoundTrip(t *testing.T) {
	ep := newEP()
	h := allocFilled(t, ep, 128, 33)
	j := NewJNIBoundary(ep)

	if n, err := j.Length(h); err != nil || n != 128 {
		t.Errorf("Length = %d, %v", n, err)
	}
	if b, err := j.Bits(h); err != nil || b != 33 {
		t.Errorf("Bits = %d, %v", b, err)
	}
	for _, idx := range []uint64{0, 63, 64, 127} {
		want, _ := ep.SmartArrayGet(h, 0, idx)
		if got, err := j.Get(h, 0, idx); err != nil || got != want {
			t.Errorf("Get(%d) = %d, %v; want %d", idx, got, err, want)
		}
		if got, err := j.GetBits(h, 0, idx, 33); err != nil || got != want {
			t.Errorf("GetBits(%d) = %d, %v; want %d", idx, got, err, want)
		}
	}
	if err := j.Init(h, 0, 5, 77); err != nil {
		t.Fatal(err)
	}
	if v, _ := j.Get(h, 0, 5); v != 77 {
		t.Errorf("after Init, Get(5) = %d, want 77", v)
	}

	ih, err := j.IterNew(h, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := j.IterGet(ih); err != nil || v != 0 {
		t.Errorf("IterGet = %d, %v", v, err)
	}
	if err := j.IterNext(ih); err != nil {
		t.Fatal(err)
	}
	if v, _ := j.IterGet(ih); v != 1 {
		t.Errorf("after next = %d, want 1", v)
	}

	if j.CallsMade == 0 {
		t.Error("boundary crossings not counted")
	}
}

func TestJNIErrorsPropagate(t *testing.T) {
	ep := newEP()
	j := NewJNIBoundary(ep)
	if _, err := j.Get(12345, 0, 0); err == nil {
		t.Error("unknown handle must fail across the boundary")
	}
	h := allocFilled(t, ep, 10, 10)
	if _, err := j.GetBits(h, 0, 0, 64); err == nil {
		t.Error("mismatched bits must fail across the boundary")
	}
}

func TestJNIDispatchRejectsMalformedFrames(t *testing.T) {
	ep := newEP()
	j := NewJNIBoundary(ep)
	for _, frame := range [][]byte{
		nil,
		{1, 2, 3},
		{0, 0, 0, 0, 0, 0, 0, 0},             // unknown fn, 0 args
		{1, 0, 0, 0, 5, 0, 0, 0},             // fnGet claims 5 args, has none
		{1, 0, 0, 0, 1, 0, 0, 0, 9, 9, 9, 9}, // truncated arg
	} {
		res := j.dispatch(frame)
		if res[0] == 0 {
			t.Errorf("malformed frame %v accepted", frame)
		}
	}
}

func TestResolveArrayDirectPath(t *testing.T) {
	ep := newEP()
	h := allocFilled(t, ep, 50, 64)
	a, err := ep.ResolveArray(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.Length() != 50 {
		t.Errorf("resolved array length = %d", a.Length())
	}
}

// TestGetBitsOnReencodedArray: the bits-taking entry point may index the
// words directly only while they are bit-packed at that width. Once the
// array is re-encoded they hold another codec's payload, and every read
// must still answer (and never panic — a guest must not crash the host).
func TestGetBitsOnReencodedArray(t *testing.T) {
	ep := newEP()
	for _, bits := range []uint{32, 64} {
		for _, kind := range encoding.Kinds {
			h := allocFilled(t, ep, 200, bits)
			want := make([]uint64, 200)
			for i := range want {
				want[i], _ = ep.SmartArrayGet(h, 0, uint64(i))
			}
			a, err := ep.ResolveArray(h)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Reencode(kind, 0); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if got, err := ep.SmartArrayGetBits(h, 0, uint64(i), bits); err != nil || got != w {
					t.Fatalf("bits=%d %v: GetBits(%d) = %d, %v; want %d", bits, kind, i, got, err, w)
				}
			}
		}
	}
}

// TestEntryPointsRejectForeignSockets: every socket-taking entry point
// refuses a socket outside the machine whatever the array's placement.
// A non-replicated array once let any socket >= 0 through, and a Migrate
// to Replicated between the check and the read then indexed a replica
// that does not exist and panicked the host.
func TestEntryPointsRejectForeignSockets(t *testing.T) {
	ep := newEP()
	sockets := ep.mem.Spec().Sockets
	for _, p := range []memsim.Placement{memsim.OSDefault, memsim.SingleSocket, memsim.Interleaved, memsim.Replicated} {
		h, err := ep.SmartArrayAllocate(64, 64, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, socket := range []int{-1, sockets, 7} {
			if _, err := ep.SmartArrayGet(h, socket, 0); err == nil {
				t.Errorf("%v: Get on socket %d accepted", p, socket)
			}
			if _, err := ep.SmartArrayGetBits(h, socket, 0, 64); err == nil {
				t.Errorf("%v: GetBits on socket %d accepted", p, socket)
			}
			if err := ep.SmartArrayInit(h, socket, 0, 1); err == nil {
				t.Errorf("%v: Init on socket %d accepted", p, socket)
			}
			if _, err := ep.IteratorNew(h, socket, 0); err == nil {
				t.Errorf("%v: IteratorNew on socket %d accepted", p, socket)
			}
		}
		a, _ := ep.ResolveArray(h)
		if _, err := a.Migrate(memsim.Replicated, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.SmartArrayGet(h, sockets, 0); err == nil {
			t.Errorf("%v migrated to replicated: Get on socket %d accepted", p, sockets)
		}
		if err := ep.SmartArrayFree(h); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIteratorPinsFreedArray: an entry-point iterator holds a reader pin
// from IteratorNew to IteratorFree, so it keeps reading correct values
// after the guest frees its array, and the array's words are unmapped
// only when the iterator goes.
func TestIteratorPinsFreedArray(t *testing.T) {
	ep := newEP()
	h := allocFilled(t, ep, 300, 33)
	ih, err := ep.IteratorNew(h, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.SmartArrayFree(h); err != nil {
		t.Fatal(err)
	}
	if ep.mem.RetiredBytes() == 0 || ep.mem.MappedBytes() != ep.mem.TotalUsedBytes() {
		t.Fatalf("after free with an iterator open: retired %d B, mapped %d B, used %d B; want still mapped and used",
			ep.mem.RetiredBytes(), ep.mem.MappedBytes(), ep.mem.TotalUsedBytes())
	}
	for i := uint64(0); i < 300; i++ {
		if got, err := ep.IteratorGet(ih); err != nil || got != i {
			t.Fatalf("iterator at %d after free = %d, %v", i, got, err)
		}
		if err := ep.IteratorNext(ih); err != nil {
			t.Fatal(err)
		}
	}
	ep.IteratorFree(ih)
	ep.IteratorFree(ih) // a second free must not unpin again
	if mapped, retired := ep.mem.MappedBytes(), ep.mem.RetiredBytes(); mapped != 0 || retired != 0 {
		t.Errorf("after IteratorFree: mapped %d B, retired %d B; want 0", mapped, retired)
	}
}

// TestLeakedIteratorRefusesAllocation: an iterator the guest never frees
// holds its pin for good, so nothing retired after it is unmapped. The
// retired payload keeps counting against the machine's memory: repeated
// re-encodes end in an allocation error, not in mapped memory that grows
// past the capacity, and freeing the iterator gives the space back.
func TestLeakedIteratorRefusesAllocation(t *testing.T) {
	ep := newEP()
	const n = 4096
	h := allocFilled(t, ep, n, 33)
	a, _ := ep.ResolveArray(h)
	capacity := 4 * a.FootprintBytes() / uint64(ep.mem.Spec().Sockets)
	ep.mem.SetCapacityBytes(capacity)
	ih, err := ep.IteratorNew(h, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	refused := false
	for round := 0; round < 100 && !refused; round++ {
		kind := encoding.RLE
		if round%2 == 1 {
			kind = encoding.BitPacked
		}
		_, err := a.Reencode(kind, 0)
		refused = err != nil
	}
	if !refused {
		t.Fatal("100 re-encodes under a leaked iterator all succeeded")
	}
	if limit := capacity * uint64(ep.mem.Spec().Sockets); ep.mem.MappedBytes() > limit {
		t.Errorf("mapped %d B under a leaked iterator, past the machine's %d B", ep.mem.MappedBytes(), limit)
	}
	ep.IteratorFree(ih)
	if ep.mem.RetiredBytes() != 0 || ep.mem.MappedBytes() != a.FootprintBytes() {
		t.Errorf("after IteratorFree: retired %d B, mapped %d B; want 0, %d",
			ep.mem.RetiredBytes(), ep.mem.MappedBytes(), a.FootprintBytes())
	}
	if _, err := a.Reencode(encoding.Plain, 0); err != nil {
		t.Errorf("re-encode after IteratorFree: %v", err)
	}
	for i := uint64(0); i < n; i += 511 {
		if got, err := ep.SmartArrayGet(h, 1, i); err != nil || got != i {
			t.Fatalf("element %d = %d, %v after the re-encodes", i, got, err)
		}
	}
}
