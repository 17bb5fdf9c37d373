package collections

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

func newMem() *memsim.Memory { return memsim.New(machine.X52Small()) }

func TestSmartSetMembership(t *testing.T) {
	mem := newMem()
	values := []uint64{5, 1, 9, 5, 3, 1, 1 << 30}
	for _, p := range []memsim.Placement{memsim.OSDefault, memsim.SingleSocket, memsim.Interleaved, memsim.Replicated} {
		s, err := NewSmartSet(mem, values, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 5 {
			t.Errorf("%v: Len = %d, want 5 (deduplicated)", p, s.Len())
		}
		for _, socket := range []int{0, 1} {
			for _, v := range values {
				if !s.Contains(socket, v) {
					t.Errorf("%v: missing %d", p, v)
				}
			}
			for _, v := range []uint64{0, 2, 10, 1 << 29} {
				if s.Contains(socket, v) {
					t.Errorf("%v: false positive %d", p, v)
				}
			}
		}
		s.Free()
	}
	if mem.TotalUsedBytes() != 0 {
		t.Errorf("leaked %d simulated bytes", mem.TotalUsedBytes())
	}
}

func TestSmartSetUsesMinBits(t *testing.T) {
	mem := newMem()
	s, err := NewSmartSet(mem, []uint64{1, 2, 1000}, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Free()
	if got := s.arr.Bits(); got != 10 {
		t.Errorf("bits = %d, want 10", got)
	}
}

func TestSmartSetRankAndRange(t *testing.T) {
	mem := newMem()
	s, err := NewSmartSet(mem, []uint64{10, 20, 30, 40, 50}, memsim.Replicated, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Free()
	if got := s.Rank(0, 30); got != 2 {
		t.Errorf("Rank(30) = %d, want 2", got)
	}
	if got := s.Rank(1, 31); got != 3 {
		t.Errorf("Rank(31) = %d, want 3", got)
	}
	if got := s.CountRange(0, 15, 45); got != 3 { // 20, 30, 40
		t.Errorf("CountRange(15,45) = %d, want 3", got)
	}
	if got := s.CountRange(0, 45, 15); got != 0 {
		t.Errorf("inverted range = %d, want 0", got)
	}
}

func TestSmartSetRejectsEmpty(t *testing.T) {
	if _, err := NewSmartSet(newMem(), nil, memsim.Interleaved, 0); err == nil {
		t.Error("empty set should fail")
	}
}

func TestSmartMapBasic(t *testing.T) {
	mem := newMem()
	m, err := NewSmartMap(mem, 100, 1<<20, 1<<16, memsim.Replicated, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	for i := uint64(0); i < 100; i++ {
		if err := m.Put(i*37, i); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 100 {
		t.Errorf("Len = %d, want 100", m.Len())
	}
	for _, socket := range []int{0, 1} {
		for i := uint64(0); i < 100; i++ {
			v, ok := m.Get(socket, i*37)
			if !ok || v != i {
				t.Fatalf("Get(%d) = %d, %v; want %d", i*37, v, ok, i)
			}
		}
		if _, ok := m.Get(socket, 999_999); ok {
			t.Error("phantom key found")
		}
	}
}

func TestSmartMapUpdate(t *testing.T) {
	mem := newMem()
	m, err := NewSmartMap(mem, 10, 100, 100, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	if err := m.Put(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(7, 2); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1 after update", m.Len())
	}
	if v, _ := m.Get(0, 7); v != 2 {
		t.Errorf("Get(7) = %d, want 2", v)
	}
}

func TestSmartMapWidthEnforcement(t *testing.T) {
	mem := newMem()
	m, err := NewSmartMap(mem, 10, 255, 15, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	if m.PayloadBytes() == 0 {
		t.Error("payload should be nonzero")
	}
	if err := m.Put(256, 1); err == nil {
		t.Error("oversized key should fail")
	}
	if err := m.Put(1, 16); err == nil {
		t.Error("oversized value should fail")
	}
}

func TestSmartMapCapacity(t *testing.T) {
	mem := newMem()
	m, err := NewSmartMap(mem, 8, 1<<30, 1<<30, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	// Fill to the load cap; the next insert must fail loudly, not loop.
	cap := m.Slots() * maxLoadNum / maxLoadDen
	var i uint64
	for ; i < cap; i++ {
		if err := m.Put(i, i); err != nil {
			t.Fatalf("Put %d/%d failed early: %v", i, cap, err)
		}
	}
	if err := m.Put(1<<25, 1); err == nil {
		t.Error("over-capacity insert should fail")
	}
}

// Property: SmartMap behaves like map[uint64]uint64 under random builds.
func TestQuickSmartMapAgainstReference(t *testing.T) {
	mem := newMem()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := map[uint64]uint64{}
		m, err := NewSmartMap(mem, 300, 1<<32, 1<<32, memsim.Interleaved, 0)
		if err != nil {
			return false
		}
		defer m.Free()
		for op := 0; op < 300; op++ {
			k := uint64(rng.Intn(500))
			v := rng.Uint64() & (1<<32 - 1)
			ref[k] = v
			if err := m.Put(k, v); err != nil {
				return false
			}
		}
		if m.Len() != uint64(len(ref)) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(rng.Intn(2), k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: SmartSet matches a reference set for random inputs.
func TestQuickSmartSetAgainstReference(t *testing.T) {
	mem := newMem()
	f := func(values []uint64) bool {
		if len(values) == 0 {
			return true
		}
		if len(values) > 300 {
			values = values[:300]
		}
		ref := map[uint64]bool{}
		for _, v := range values {
			ref[v] = true
		}
		s, err := NewSmartSet(mem, values, memsim.Replicated, 0)
		if err != nil {
			return false
		}
		defer s.Free()
		if s.Len() != uint64(len(ref)) {
			return false
		}
		for _, v := range values {
			if !s.Contains(1, v) {
				return false
			}
			if !ref[v+1] && s.Contains(0, v+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	mem := newMem()
	s, _ := NewSmartSet(mem, []uint64{1}, memsim.Interleaved, 0)
	defer s.Free()
	if s.String() == "" {
		t.Error("empty set string")
	}
	m, _ := NewSmartMap(mem, 4, 10, 10, memsim.Interleaved, 0)
	defer m.Free()
	if m.String() == "" {
		t.Error("empty map string")
	}
}
