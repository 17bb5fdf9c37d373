package analytics

import (
	"math"
	"sync"
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/graph"
)

// TestPageRankerLeasesUnderConcurrency runs one PageRanker from several
// goroutines at once, with stealing on and iteration bounds that differ
// from run to run, so runs of different lengths overlap and hand their
// leases back in every order. Every result must be PageRankRef's,
// bit-for-bit; a rank array a run is reading must be held by that run
// alone and never sit on the free list; the free list must never hold more
// leases than runs were ever in flight at once; and the cached arrays must
// never be written after the ranker is built.
func TestPageRankerLeasesUnderConcurrency(t *testing.T) {
	const goroutines, runs, maxIters = 4, 20, 6
	g, err := graph.GeneratePowerLaw(3000, 6, 1.7, 21)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT()
	rt.SetStealing(true)
	s := smartGraph(t, rt, g, graph.Layout{CompressBegin: true, CompressEdge: true})
	cfgs := make([]PageRankConfig, maxIters+1)
	want := make([][]float64, maxIters+1)
	for m := 1; m <= maxIters; m++ {
		cfgs[m] = DefaultPageRankConfig()
		cfgs[m].Tol = 1e-15 // run every iteration the bound allows
		cfgs[m].MaxIters = m
		want[m], _ = PageRankRef(g, cfgs[m])
	}
	p, err := NewPageRanker(rt, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Free()
	cached := []*core.SmartArray{p.outDeg, p.invDeg, p.contrib0}
	gens := make([]uint64, len(cached))
	for i, a := range cached {
		gens[i] = a.Generation()
	}

	var mu sync.Mutex // guards inUse, running and peak
	inUse := map[*core.SmartArray]bool{}
	running, peak := 0, 0
	// checkIdle holds the free list to the leases' held flags and to peak.
	checkIdle := func(visiting *core.SmartArray) {
		mu.Lock()
		bound := peak
		mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.idle) > bound {
			t.Errorf("free list holds %d leases, at most %d runs were in flight", len(p.idle), bound)
		}
		seen := map[*prLease]bool{}
		for _, l := range p.idle {
			if l.held {
				t.Errorf("a lease on the free list is marked held")
			}
			if seen[l] {
				t.Errorf("a lease is on the free list twice")
			}
			seen[l] = true
			for _, pair := range l.pairs {
				if pair.ranks == visiting {
					t.Errorf("the rank array a run is reading is on the free list")
				}
			}
		}
	}

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			got := make([]uint64, g.NumVertices)
			for r := 0; r < runs; r++ {
				m := 1 + (gi*7+r*5)%maxIters
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				iters, _, err := p.Run(rt, cfgs[m], func(ranks *core.SmartArray) {
					mu.Lock()
					if inUse[ranks] {
						t.Errorf("a rank array is visible to two runs at once")
					}
					inUse[ranks] = true
					mu.Unlock()
					checkIdle(ranks)
					core.ReadRange(ranks, 0, 0, uint64(len(got)), got)
					mu.Lock()
					delete(inUse, ranks)
					mu.Unlock()
				})
				mu.Lock()
				running--
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if iters != m {
					t.Errorf("run with MaxIters=%d: %d iterations", m, iters)
				}
				for v, bits := range got {
					if bits != math.Float64bits(want[m][v]) {
						t.Errorf("MaxIters=%d: rank[%d] = %x, PageRankRef gives %x", m, v, bits, math.Float64bits(want[m][v]))
						return
					}
				}
				checkIdle(nil)
			}
		}(gi)
	}
	wg.Wait()
	checkIdle(nil)
	t.Logf("%d runs in flight at peak, %d leases allocated", peak, len(p.idle))
	for i, a := range cached {
		if a.Generation() != gens[i] {
			t.Errorf("cached array %d written after the ranker was built", i)
		}
	}
}
