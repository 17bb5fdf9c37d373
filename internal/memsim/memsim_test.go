package memsim

import (
	"testing"
	"testing/quick"

	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
)

func newMem(t *testing.T) *Memory {
	t.Helper()
	return New(machine.X52Small())
}

func TestAllocAccountsFootprint(t *testing.T) {
	m := newMem(t)
	const words = 4 * PageWords
	r, err := m.Alloc(words, Replicated, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.UsedBytes(0); got != words*8 {
		t.Errorf("socket0 used = %d, want %d", got, words*8)
	}
	if got := m.UsedBytes(1); got != words*8 {
		t.Errorf("socket1 used = %d, want %d", got, words*8)
	}
	if got := r.FootprintBytes(); got != 2*words*8 {
		t.Errorf("FootprintBytes = %d, want %d", got, 2*words*8)
	}
	r.Free()
	if got := m.TotalUsedBytes(); got != 0 {
		t.Errorf("after Free, used = %d, want 0", got)
	}
}

func TestAllocSingleSocketAccounting(t *testing.T) {
	m := newMem(t)
	r, err := m.Alloc(PageWords, SingleSocket, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if m.UsedBytes(0) != 0 || m.UsedBytes(1) != PageBytes {
		t.Errorf("used = %d/%d, want 0/%d", m.UsedBytes(0), m.UsedBytes(1), PageBytes)
	}
}

func TestAllocRejectsBadArgs(t *testing.T) {
	m := newMem(t)
	if _, err := m.Alloc(0, Interleaved, 0); err == nil {
		t.Error("zero-length alloc should fail")
	}
	if _, err := m.Alloc(8, SingleSocket, 5); err == nil {
		t.Error("bad socket should fail")
	}
}

func TestCanAllocRespectsCapacity(t *testing.T) {
	m := newMem(t)
	m.SetCapacityBytes(64 * PageBytes)
	capWords := m.CapacityBytes() / 8
	if m.CanAlloc(capWords+1, SingleSocket, 0) {
		t.Error("over-capacity single socket alloc should be rejected")
	}
	if m.CanAlloc(capWords+1, Replicated, 0) {
		t.Error("over-capacity replicated alloc should be rejected")
	}
	if !m.CanAlloc(capWords+1, Interleaved, 0) {
		t.Error("interleaved alloc spreading under per-socket capacity should fit")
	}
}

func TestHomeSocketInterleaved(t *testing.T) {
	m := newMem(t)
	r, _ := m.Alloc(4*PageWords, Interleaved, 0)
	defer r.Free()
	wants := []int{0, 1, 0, 1}
	for p, want := range wants {
		w := uint64(p) * PageWords
		if got := r.HomeSocket(w, 0); got != want {
			t.Errorf("page %d home = %d, want %d", p, got, want)
		}
	}
}

func TestHomeSocketReplicatedIsReader(t *testing.T) {
	m := newMem(t)
	r, _ := m.Alloc(PageWords, Replicated, 0)
	defer r.Free()
	if got := r.HomeSocket(0, 1); got != 1 {
		t.Errorf("home = %d, want reader socket 1", got)
	}
}

func TestOSDefaultFirstTouch(t *testing.T) {
	m := newMem(t)
	r, _ := m.Alloc(2*PageWords, OSDefault, 0)
	defer r.Free()
	if got := r.HomeSocket(0, 1); got != 0 {
		t.Errorf("untouched page home = %d, want 0", got)
	}
	r.TouchRange(10, 1, 1) // first touch page 0 from socket 1
	if got := r.HomeSocket(0, 0); got != 1 {
		t.Errorf("touched page home = %d, want 1", got)
	}
	r.TouchRange(20, 1, 0) // second touch must not move the page
	if got := r.HomeSocket(0, 0); got != 1 {
		t.Errorf("page moved on second touch: home = %d, want 1", got)
	}
	r.TouchRange(PageWords, PageWords, 0)
	if got := r.HomeSocket(PageWords, 1); got != 0 {
		t.Errorf("range-touched page home = %d, want 0", got)
	}
}

func TestReplicaSelection(t *testing.T) {
	m := newMem(t)
	r, _ := m.Alloc(8, Replicated, 0)
	defer r.Free()
	r.Replica(0)[0] = 111
	r.Replica(1)[0] = 222
	if got := r.Replica(0)[0]; got != 111 {
		t.Errorf("replica0 = %d", got)
	}
	if got := r.Replica(1)[0]; got != 222 {
		t.Errorf("replica1 = %d", got)
	}
	single, _ := m.Alloc(8, Interleaved, 0)
	defer single.Free()
	single.Replica(0)[0] = 5
	if got := single.Replica(1)[0]; got != 5 {
		t.Errorf("non-replicated region must share storage, got %d", got)
	}
}

func TestAccountScanSingleSocket(t *testing.T) {
	m := newMem(t)
	f := counters.NewFabric(2)
	sh := f.NewShard(1) // reader on socket 1
	r, _ := m.Alloc(PageWords, SingleSocket, 0)
	defer r.Free()
	r.AccountScan(sh, 0, PageWords)
	snap := f.Snapshot()
	if got := snap.Sockets[1].ReadBytesFrom[0]; got != PageBytes {
		t.Errorf("bytes from socket0 = %d, want %d", got, PageBytes)
	}
	if got := snap.Sockets[1].LocalReadBytes(1); got != 0 {
		t.Errorf("local bytes = %d, want 0", got)
	}
}

func TestAccountScanInterleavedSplitsEvenly(t *testing.T) {
	m := newMem(t)
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	const pages = 64
	r, _ := m.Alloc(pages*PageWords, Interleaved, 0)
	defer r.Free()
	r.AccountScan(sh, 0, pages*PageWords)
	snap := f.Snapshot()
	from0 := snap.Sockets[0].ReadBytesFrom[0]
	from1 := snap.Sockets[0].ReadBytesFrom[1]
	if from0 != from1 || from0 != pages*PageBytes/2 {
		t.Errorf("interleaved split = %d/%d, want equal %d", from0, from1, pages*PageBytes/2)
	}
}

func TestAccountScanInterleavedPartialMatchesExactWalk(t *testing.T) {
	// The analytic fast path must agree with an exact page walk for ranges
	// with partial head/tail pages.
	check := func(startWord, nWords uint64) bool {
		m := New(machine.X52Small())
		const pages = 40
		r, _ := m.Alloc(pages*PageWords, Interleaved, 0)
		defer r.Free()
		startWord %= (pages - 8) * PageWords
		nWords = nWords%(7*PageWords) + 1

		f := counters.NewFabric(2)
		sh := f.NewShard(0)
		r.AccountScan(sh, startWord, nWords)
		got := f.Snapshot()

		want := make([]uint64, 2)
		end := startWord + nWords
		for w := startWord; w < end; {
			pageEnd := (w/PageWords + 1) * PageWords
			if pageEnd > end {
				pageEnd = end
			}
			want[(w/PageWords)%2] += (pageEnd - w) * 8
			w = pageEnd
		}
		return got.Sockets[0].ReadBytesFrom[0] == want[0] &&
			got.Sockets[0].ReadBytesFrom[1] == want[1]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccountScanInterleavedLargeRangeExact(t *testing.T) {
	// A large range exercising the analytic middle path, cross-checked
	// against the exact walk.
	m := newMem(t)
	const pages = 129
	r, _ := m.Alloc(pages*PageWords, Interleaved, 0)
	defer r.Free()
	start := uint64(100)                // partial head page
	n := uint64(pages-1)*PageWords - 50 // partial tail page
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	r.AccountScan(sh, start, n)
	snap := f.Snapshot()

	want := make([]uint64, 2)
	end := start + n
	for w := start; w < end; {
		pageEnd := (w/PageWords + 1) * PageWords
		if pageEnd > end {
			pageEnd = end
		}
		want[(w/PageWords)%2] += (pageEnd - w) * 8
		w = pageEnd
	}
	for s := 0; s < 2; s++ {
		if got := snap.Sockets[0].ReadBytesFrom[s]; got != want[s] {
			t.Errorf("socket %d bytes = %d, want %d", s, got, want[s])
		}
	}
}

func TestAccountScanReplicatedIsLocal(t *testing.T) {
	m := newMem(t)
	f := counters.NewFabric(2)
	sh := f.NewShard(1)
	r, _ := m.Alloc(PageWords, Replicated, 0)
	defer r.Free()
	r.AccountScan(sh, 0, PageWords)
	snap := f.Snapshot()
	if got := snap.Sockets[1].LocalReadBytes(1); got != PageBytes {
		t.Errorf("local = %d, want %d", got, PageBytes)
	}
	if got := sh.RemoteReadBytes; got != 0 {
		t.Errorf("remote = %d, want 0", got)
	}
}

func TestAccountWriteReplicatedChargesAllReplicas(t *testing.T) {
	m := newMem(t)
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	r, _ := m.Alloc(8, Replicated, 0)
	defer r.Free()
	r.AccountWrite(sh, 0, 8)
	if got := sh.LocalWriteBytes + sh.RemoteWriteBytes; got != 2*64 {
		t.Errorf("write bytes = %d, want 128 (both replicas)", got)
	}
}

func TestAccountRandom(t *testing.T) {
	m := newMem(t)
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	r, _ := m.Alloc(4*PageWords, Interleaved, 0)
	defer r.Free()
	r.AccountRandom(sh, 100, 8)
	snap := f.Snapshot()
	if got := sh.RandomAccesses; got != 100 {
		t.Errorf("random accesses = %d, want 100", got)
	}
	if got := sh.LocalReadBytes + sh.RemoteReadBytes; got != 800 {
		t.Errorf("random bytes = %d, want 800", got)
	}
	if got := snap.Sockets[0].ReadBytesFrom[1]; got != 400 {
		t.Errorf("remote half = %d, want 400", got)
	}
}

func TestPlacementString(t *testing.T) {
	names := map[Placement]string{
		OSDefault:    "OS default",
		SingleSocket: "single socket",
		Interleaved:  "interleaved",
		Replicated:   "replicated",
		Placement(9): "Placement(9)",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestAccountScanOSDefaultFollowsTouches(t *testing.T) {
	m := newMem(t)
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	r, _ := m.Alloc(2*PageWords, OSDefault, 0)
	defer r.Free()
	r.TouchRange(0, PageWords, 0)
	r.TouchRange(PageWords, PageWords, 1)
	r.AccountScan(sh, 0, 2*PageWords)
	snap := f.Snapshot()
	if got := snap.Sockets[0].ReadBytesFrom[0]; got != PageBytes {
		t.Errorf("from socket0 = %d, want %d", got, PageBytes)
	}
	if got := snap.Sockets[0].ReadBytesFrom[1]; got != PageBytes {
		t.Errorf("from socket1 = %d, want %d", got, PageBytes)
	}
}
