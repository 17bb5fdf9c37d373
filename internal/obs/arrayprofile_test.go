package obs

import (
	"sync"
	"testing"

	"smartarrays/internal/counters"
)

func TestArrayRegistryRegisterAndFold(t *testing.T) {
	reg := NewArrayRegistry()
	id := reg.Register("ranks", 33, 1000, "interleaved")
	if id == 0 {
		t.Fatal("Register returned the unregistered sentinel")
	}
	anon := reg.Register("", 64, 10, "single socket 0")
	if p, ok := reg.Profile(anon); !ok || p.Name != "array-2" {
		t.Fatalf("anonymous array profile = %+v, want default name array-2", p)
	}

	reg.Fold(id, &counters.ArrayAccess{
		Reduces: 1, ReduceElems: 800,
		Gathers: 2, GatherElems: 200,
		LocalBytes: 3000, RemoteBytes: 1000,
		PredEvals: 800, PredHits: 200,
	})
	reg.Fold(id, &counters.ArrayAccess{Inits: 1, InitElems: 1000})

	p, ok := reg.Profile(id)
	if !ok {
		t.Fatal("Profile lost the array")
	}
	if p.Folds != 2 {
		t.Fatalf("Folds = %d, want 2", p.Folds)
	}
	if got := p.TotalElems(); got != 800+200+1000 {
		t.Fatalf("TotalElems = %d, want 2000", got)
	}
	if got := p.RandomShare(); got != 0.2 {
		t.Fatalf("RandomShare = %v, want 0.2", got)
	}
	if got := p.ChunkDecodeShare(); got != 0.8 {
		t.Fatalf("ChunkDecodeShare = %v, want 0.8", got)
	}
	if got := p.LocalShare(); got != 0.75 {
		t.Fatalf("LocalShare = %v, want 0.75", got)
	}
	if got := p.ReadsPerElement(); got != 1.0 {
		t.Fatalf("ReadsPerElement = %v, want 1.0", got)
	}
	if sel, ok := p.Selectivity(); !ok || sel != 0.25 {
		t.Fatalf("Selectivity = %v,%v, want 0.25,true", sel, ok)
	}

	ps := reg.Profiles()
	if len(ps) != 2 || ps[0].ID >= ps[1].ID {
		t.Fatalf("Profiles = %+v, want 2 ordered by ID", ps)
	}

	// Lifecycle updates: a migration is recorded, a freed array leaves.
	reg.SetPlacement(id, "replicated")
	if p, _ = reg.Profile(id); p.Placement != "replicated" {
		t.Fatalf("placement update lost: %+v", p)
	}
	reg.Unregister(id)
	if _, ok := reg.Profile(id); ok || reg.Len() != 1 {
		t.Fatalf("Unregister kept the profile: Len = %d", reg.Len())
	}
}

func TestArrayRegistryZeroProfileRatios(t *testing.T) {
	reg := NewArrayRegistry()
	id := reg.Register("idle", 8, 0, "interleaved")
	p, _ := reg.Profile(id)
	if p.RandomShare() != 0 || p.ChunkDecodeShare() != 0 || p.LocalShare() != 0 || p.ReadsPerElement() != 0 {
		t.Fatalf("untouched array must report zero ratios: %+v", p)
	}
	if _, ok := p.Selectivity(); ok {
		t.Fatal("untouched array must report no selectivity")
	}
}

func TestArrayRegistryFoldShard(t *testing.T) {
	reg := NewArrayRegistry()
	id := reg.Register("hot", 10, 64, "interleaved")

	var sh counters.Shard
	aa := sh.Array(id)
	aa.Scans, aa.ScanElems = 1, 64
	// An ID the registry never saw (allocated pre-attach): dropped quietly.
	sh.Array(id + 100).GatherElems = 5

	reg.FoldShard(&sh)
	p, _ := reg.Profile(id)
	if p.Access.ScanElems != 64 || p.Folds != 1 {
		t.Fatalf("FoldShard lost the scan: %+v", p)
	}
	// Drain must clear the shard: a second fold adds nothing.
	reg.FoldShard(&sh)
	if p, _ = reg.Profile(id); p.Access.ScanElems != 64 {
		t.Fatalf("shard not cleared by drain: %+v", p)
	}
}

func TestArrayRegistryNilSafe(t *testing.T) {
	var reg *ArrayRegistry
	if id := reg.Register("x", 1, 1, "p"); id != 0 {
		t.Fatalf("nil registry Register = %d, want 0", id)
	}
	reg.SetPlacement(1, "p")
	reg.Unregister(1)
	reg.Fold(1, &counters.ArrayAccess{})
	reg.FoldShard(nil)
	if _, ok := reg.Profile(1); ok {
		t.Fatal("nil registry must have no profiles")
	}
	if reg.Profiles() != nil || reg.Len() != 0 {
		t.Fatal("nil registry must be empty")
	}
}

// TestArrayRegistryConcurrent folds from many goroutines (the loop-barrier
// shape) while the introspection-server shape snapshots; -race polices the
// locking.
func TestArrayRegistryConcurrent(t *testing.T) {
	reg := NewArrayRegistry()
	const arrays = 4
	ids := make([]uint64, arrays)
	for i := range ids {
		ids[i] = reg.Register("", 10, 100, "interleaved")
	}
	const folders = 8
	const perFolder = 500
	var wg sync.WaitGroup
	for f := 0; f < folders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < perFolder; i++ {
				reg.Fold(ids[i%arrays], &counters.ArrayAccess{Gathers: 1, GatherElems: 1})
			}
		}(f)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = reg.Profiles()
			_, _ = reg.Profile(ids[0])
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, p := range reg.Profiles() {
		total += p.Access.GatherElems
	}
	if want := uint64(folders * perFolder); total != want {
		t.Fatalf("folded GatherElems = %d, want %d", total, want)
	}
}
