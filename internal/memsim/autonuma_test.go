package memsim

import (
	"testing"

	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
)

func TestAutoNUMAMigratesTowardAccessor(t *testing.T) {
	m := New(machine.X52Small())
	m.EnableAutoNUMA(true)
	f := counters.NewFabric(2)
	sh0 := f.NewShard(0)
	sh1 := f.NewShard(1)

	r, err := m.Alloc(4*PageWords, OSDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	// Single-threaded first touch on socket 0: all pages land there.
	r.TouchRange(0, 4*PageWords, 0)
	for p := uint64(0); p < 4; p++ {
		if got := r.HomeSocket(p*PageWords, 1); got != 0 {
			t.Fatalf("page %d home = %d before balance, want 0", p, got)
		}
	}

	// Socket 1 dominates accesses to the upper half.
	r.AccountScan(sh1, 2*PageWords, 2*PageWords)
	r.AccountScan(sh0, 0, 2*PageWords)

	migrated := m.AutoNUMABalance()
	if migrated != 2 {
		t.Errorf("migrated %d pages, want 2", migrated)
	}
	for p := uint64(0); p < 2; p++ {
		if got := r.HomeSocket(p*PageWords, 1); got != 0 {
			t.Errorf("lower page %d moved to %d", p, got)
		}
	}
	for p := uint64(2); p < 4; p++ {
		if got := r.HomeSocket(p*PageWords, 0); got != 1 {
			t.Errorf("upper page %d home = %d, want 1", p, got)
		}
	}

	// A second balanced pass with no new accesses migrates nothing.
	if migrated := m.AutoNUMABalance(); migrated != 0 {
		t.Errorf("idle balance migrated %d pages", migrated)
	}
}

func TestAutoNUMAConvergesUnderStablePattern(t *testing.T) {
	m := New(machine.X52Small())
	m.EnableAutoNUMA(true)
	f := counters.NewFabric(2)
	shards := []*counters.Shard{f.NewShard(0), f.NewShard(1)}

	const pages = 32
	r, err := m.Alloc(pages*PageWords, OSDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	r.TouchRange(0, pages*PageWords, 0) // all on socket 0 initially

	// Stable pattern: each socket scans its half every iteration. The
	// placement must converge after one balance and then stay fixed —
	// "several iterations to stabilize" from a cold start, zero churn
	// afterwards.
	var migrations []int
	for iter := 0; iter < 4; iter++ {
		shards[0].Reset()
		shards[1].Reset()
		r.AccountScan(shards[0], 0, pages/2*PageWords)
		r.AccountScan(shards[1], pages/2*PageWords, pages/2*PageWords)
		migrations = append(migrations, m.AutoNUMABalance())
	}
	if migrations[0] != pages/2 {
		t.Errorf("first balance migrated %d pages, want %d", migrations[0], pages/2)
	}
	for i, mig := range migrations[1:] {
		if mig != 0 {
			t.Errorf("iteration %d migrated %d pages after convergence", i+2, mig)
		}
	}
}

func TestAutoNUMADisabledDoesNothing(t *testing.T) {
	m := New(machine.X52Small())
	if m.autoNUMAFlag.Load() {
		t.Fatal("AutoNUMA should default off (as in the paper's evaluation)")
	}
	f := counters.NewFabric(2)
	sh := f.NewShard(1)
	r, err := m.Alloc(2*PageWords, OSDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	r.TouchRange(0, 2*PageWords, 0)
	r.AccountScan(sh, 0, 2*PageWords)
	if migrated := m.AutoNUMABalance(); migrated != 0 {
		t.Errorf("disabled AutoNUMA migrated %d pages", migrated)
	}
}

func TestAutoNUMAIgnoresExplicitPlacements(t *testing.T) {
	m := New(machine.X52Small())
	m.EnableAutoNUMA(true)
	f := counters.NewFabric(2)
	sh := f.NewShard(1)
	for _, p := range []Placement{SingleSocket, Interleaved, Replicated} {
		r, err := m.Alloc(2*PageWords, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.AccountScan(sh, 0, 2*PageWords)
		if migrated := m.AutoNUMABalance(); migrated != 0 {
			t.Errorf("%v: explicit placement migrated %d pages", p, migrated)
		}
		r.Free()
	}
}
