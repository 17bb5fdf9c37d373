package analytics

import (
	"fmt"
	"sync"
	"sync/atomic"

	"smartarrays/internal/graph"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// BFS runs a level-synchronous breadth-first search over the smart-array
// graph's forward edges from src, returning per-vertex levels (-1 for
// unreachable vertices), the number of levels, and a workload descriptor.
func BFS(rt *rts.Runtime, g *graph.SmartCSR, src uint64) ([]int64, int, perfmodel.Workload, error) {
	if src >= g.NumVertices {
		return nil, 0, perfmodel.Workload{}, fmt.Errorf("analytics: source %d out of range [0,%d)", src, g.NumVertices)
	}
	n := g.NumVertices
	levels := make([]int64, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0

	frontier := []uint64{src}
	level := int64(0)
	var edgesTouched uint64
	var mu sync.Mutex

	for len(frontier) > 0 {
		var next []uint64
		rt.ParallelFor(0, uint64(len(frontier)), 64, func(w *rts.Worker, lo, hi uint64) {
			// Batch-gather the frontier's begin bounds (two index vectors:
			// v and v+1), then decode each vertex's edge run flat, through
			// one View per array read under the loop's pin.
			begin, edge := g.Begin.View(w.Socket), g.Edge.View(w.Socket)
			batch := frontier[lo:hi]
			idx1 := make([]uint64, len(batch))
			for i, v := range batch {
				idx1[i] = v + 1
			}
			eLos := make([]uint64, len(batch))
			eHis := make([]uint64, len(batch))
			begin.Gather(batch, eLos)
			begin.Gather(idx1, eHis)
			var local, edges []uint64
			var touched uint64
			for i := range batch {
				eLo, eHi := eLos[i], eHis[i]
				deg := eHi - eLo
				if deg == 0 {
					continue
				}
				touched += deg
				if uint64(len(edges)) < deg {
					edges = make([]uint64, deg)
				}
				edge.Read(eLo, eHi, edges)
				for _, d := range edges[:deg] {
					// Claim the vertex exactly once.
					if atomic.CompareAndSwapInt64(&levels[d], -1, level+1) {
						local = append(local, d)
					}
				}
			}
			mu.Lock()
			next = append(next, local...)
			atomic.AddUint64(&edgesTouched, touched)
			mu.Unlock()
		})
		frontier = next
		level++
	}

	e := float64(edgesTouched)
	v := float64(n)
	work := perfmodel.Workload{
		// Every edge is inspected once over the whole traversal; the begin
		// array is batch-gathered per frontier vertex.
		Instructions: e*(perfmodel.CostStream(g.Edge.Bits())+4) + v*(2*perfmodel.CostGather(g.Begin.Bits())+4),
		Streams: []perfmodel.Stream{
			scanStream(g.Edge, 1),
			scanStream(g.Begin, 1),
			interleavedWrite(v * 8), // the levels output
		},
	}
	return levels, int(level), work, nil
}
