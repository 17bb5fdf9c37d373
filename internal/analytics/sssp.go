package analytics

import (
	"fmt"
	"math"
	"sync/atomic"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/rts"
)

// infDistance marks unreachable vertices.
const infDistance = math.MaxUint64

// SSSPConfig parameterizes single-source shortest paths.
type SSSPConfig struct {
	// Source vertex.
	Source uint64
	// MaxRounds bounds the Bellman-Ford rounds (defaults to V).
	MaxRounds int
}

// SSSP computes single-source shortest paths over the smart-array graph
// with non-negative integer edge weights stored in a bit-compressed smart
// array property (one weight per forward edge, aligned with g.Edge). It
// runs round-synchronous Bellman-Ford relaxations with CAS distance
// updates — a second exercise of the read path plus the §4.2 thread-safe
// writes. Unreachable vertices report Unreachable.
func SSSP(rt *rts.Runtime, g *graph.SmartCSR, weights *core.SmartArray, cfg SSSPConfig) ([]uint64, int, error) {
	if cfg.Source >= g.NumVertices {
		return nil, 0, fmt.Errorf("analytics: source %d out of range [0,%d)", cfg.Source, g.NumVertices)
	}
	if weights.Length() < g.NumEdges {
		return nil, 0, fmt.Errorf("analytics: %d weights for %d edges", weights.Length(), g.NumEdges)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = int(g.NumVertices)
	}

	dist := make([]uint64, g.NumVertices)
	for i := range dist {
		dist[i] = infDistance
	}
	dist[cfg.Source] = 0

	rounds := 0
	for r := 0; r < maxRounds; r++ {
		var changed atomic.Bool
		rt.ParallelFor(0, g.NumVertices, 0, func(w *rts.Worker, lo, hi uint64) {
			// Stream the batch's begin run once, then decode edge and
			// weight runs per *active* vertex through the flat range
			// reader — unreachable vertices keep skipping their edge
			// loops entirely, which dominates sparse rounds.
			begins := make([]uint64, hi-lo+1)
			core.ReadRange(g.Begin, w.Socket, lo, hi+1, begins)
			var edges, wts []uint64
			for u := lo; u < hi; u++ {
				du := atomic.LoadUint64(&dist[u])
				if du == infDistance {
					continue
				}
				eLo, eEnd := begins[u-lo], begins[u-lo+1]
				deg := eEnd - eLo
				if deg == 0 {
					continue
				}
				if uint64(len(edges)) < deg {
					edges = make([]uint64, deg)
					wts = make([]uint64, deg)
				}
				core.ReadRange(g.Edge, w.Socket, eLo, eEnd, edges)
				core.ReadRange(weights, w.Socket, eLo, eEnd, wts)
				for i := uint64(0); i < deg; i++ {
					v := edges[i]
					nd := du + wts[i]
					for {
						old := atomic.LoadUint64(&dist[v])
						if nd >= old {
							break
						}
						if atomic.CompareAndSwapUint64(&dist[v], old, nd) {
							changed.Store(true)
							break
						}
					}
				}
			}
		})
		rounds++
		if !changed.Load() {
			break
		}
	}
	return dist, rounds, nil
}

// Unreachable is the distance reported for vertices the source cannot
// reach.
const Unreachable = uint64(infDistance)

// BuildWeights packs per-edge weights into a smart array at the minimum
// width, with the same placement as the graph's edge array.
func BuildWeights(rt *rts.Runtime, g *graph.SmartCSR, weights []uint64) (*core.SmartArray, error) {
	if uint64(len(weights)) != g.NumEdges {
		return nil, fmt.Errorf("analytics: %d weights for %d edges", len(weights), g.NumEdges)
	}
	layout := g.Layout()
	arr, err := core.Allocate(rt.Memory(), core.Config{
		Name:      "edge-weights",
		Length:    g.NumEdges,
		Bits:      bitpack.MinBitsFor(weights),
		Placement: layout.Placement,
		Socket:    layout.Socket,
	})
	if err != nil {
		return nil, err
	}
	arr.InitRange(layout.Socket, 0, weights)
	return arr, nil
}

// SSSPRef is the sequential Dijkstra-free reference (Bellman-Ford on the
// plain CSR) used by tests.
func SSSPRef(g *graph.CSR, weights []uint64, source uint64) []uint64 {
	dist := make([]uint64, g.NumVertices)
	for i := range dist {
		dist[i] = infDistance
	}
	dist[source] = 0
	for r := uint64(0); r < g.NumVertices; r++ {
		changed := false
		for u := uint64(0); u < g.NumVertices; u++ {
			if dist[u] == infDistance {
				continue
			}
			for e := g.Begin[u]; e < g.Begin[u+1]; e++ {
				v := g.Edge[e]
				if nd := dist[u] + weights[e]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
