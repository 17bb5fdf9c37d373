package obs

import (
	"sync"
	"testing"
)

func TestArrayRegistryRegisterAndFold(t *testing.T) {
	reg := NewArrayRegistry()
	c := reg.Register("ranks", 33, 1000, "interleaved")
	id := c.ID()
	if id == 0 {
		t.Fatal("Register returned the unregistered sentinel")
	}
	anon := reg.Register("", 64, 10, "single socket 0")
	if p, ok := reg.Profile(anon.ID()); !ok || p.Name != "array-2" {
		t.Fatalf("anonymous array profile = %+v, want default name array-2", p)
	}

	c.Add(AccessReduce, 800, 3000, 1000)
	c.Add(AccessGather, 200, 0, 0)
	c.AddPredicate(800, 200)
	c.Add(AccessInit, 1000, 0, 0)

	p, ok := reg.Profile(id)
	if !ok {
		t.Fatal("Profile lost the array")
	}
	// One fold per accounting call: three hook calls and a predicate pass.
	if p.Folds != 4 {
		t.Fatalf("Folds = %d, want 4", p.Folds)
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
	p, _ := reg.Profile(reg.Register("idle", 8, 0, "interleaved").ID())
	if p.RandomShare() != 0 || p.ChunkDecodeShare() != 0 || p.LocalShare() != 0 || p.ReadsPerElement() != 0 {
		t.Fatalf("untouched array must report zero ratios: %+v", p)
	}
	if _, ok := p.Selectivity(); ok {
		t.Fatal("untouched array must report no selectivity")
	}
}

func TestArrayRegistryNilSafe(t *testing.T) {
	var reg *ArrayRegistry
	c := reg.Register("x", 1, 1, "p")
	if c != nil || c.ID() != 0 {
		t.Fatalf("nil registry Register = %+v, want nil", c)
	}
	if acc, calls := c.Load(); acc != (ArrayAccess{}) || calls != 0 {
		t.Fatalf("nil counters Load = %+v, %d", acc, calls)
	}
	reg.SetPlacement(1, "p")
	reg.SetEncoding(1, "rle", 4)
	reg.Unregister(1)
	if _, ok := reg.Profile(1); ok {
		t.Fatal("nil registry must have no profiles")
	}
	if reg.Profiles() != nil || reg.Len() != 0 {
		t.Fatal("nil registry must be empty")
	}
}

// TestArrayRegistryConcurrent adds from many goroutines the way loop
// bodies and scan passes do — hook-style element/byte adds and predicate
// passes — while introspection-style readers snapshot. Every snapshot
// must read a selectivity of at most 1 (hits are loaded before evals),
// and the final totals must be exact; -race polices the write path. The
// run is long enough that swapping AddPredicate's two adds fails the
// selectivity check on every run tried.
func TestArrayRegistryConcurrent(t *testing.T) {
	reg := NewArrayRegistry()
	const arrays = 4
	blocks := make([]*ArrayCounters, arrays)
	for i := range blocks {
		blocks[i] = reg.Register("", 10, 100, "interleaved")
	}
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	for f := 0; f < writers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c := blocks[i%arrays]
				if f%2 == 0 {
					c.Add(AccessGather, 1, 2, 3)
				} else {
					// Every pass matches all it tests: the selectivity a
					// reader may see is exactly 1 at most.
					c.AddPredicate(7, 7)
				}
			}
		}(f)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range reg.Profiles() {
					if sel, ok := p.Selectivity(); ok && sel > 1 {
						t.Errorf("%s: snapshot selectivity %v above 1 (%+v)", p.Name, sel, p.Access)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var gathers, local, remote, evals, hits, folds uint64
	for _, p := range reg.Profiles() {
		gathers += p.Access.GatherElems
		local += p.Access.LocalBytes
		remote += p.Access.RemoteBytes
		evals += p.Access.PredEvals
		hits += p.Access.PredHits
		folds += p.Folds
	}
	const adds = writers / 2 * perWriter
	if gathers != adds || local != 2*adds || remote != 3*adds {
		t.Fatalf("hook totals gathers=%d local=%d remote=%d, want %d/%d/%d", gathers, local, remote, adds, 2*adds, 3*adds)
	}
	if evals != 7*adds || hits != 7*adds {
		t.Fatalf("predicate totals evals=%d hits=%d, want %d each", evals, hits, 7*adds)
	}
	if folds != writers*perWriter {
		t.Fatalf("folds = %d, want one per call (%d)", folds, writers*perWriter)
	}
}
