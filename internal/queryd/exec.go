// Plan execution: one validated plan against one immutable dataset, run
// through a priority-tagged runtime view. Everything here is per-query
// state; the only shared structures touched are the dataset's read-only
// arrays and the runtime's list of loops in flight.
package queryd

import (
	"errors"
	"fmt"
	"math"

	"smartarrays/internal/analytics"
	"smartarrays/internal/core"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// topK bounds the per-vertex detail returned by graph queries; full rank
// vectors are benchmark output, not a serving payload.
const topK = 10

// VertexRank is one entry of a PageRank result's top list.
type VertexRank struct {
	Vertex uint64  `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// GroupResult is one GroupBy output row in wire form.
type GroupResult struct {
	Key   uint64 `json:"key"`
	Value uint64 `json:"value"`
}

// AggregateResult is the aggregate wire result.
type AggregateResult struct {
	Value uint64 `json:"value"`
}

// GroupByResult is the groupby wire result.
type GroupByResult struct {
	Groups []GroupResult `json:"groups"`
}

// PageRankResult summarizes a PageRank run: iterations actually executed,
// the rank mass (≈1.0 — a cheap client-side sanity check), and the top-K
// vertices.
type PageRankResult struct {
	Iters   int          `json:"iters"`
	RankSum float64      `json:"rank_sum"`
	Top     []VertexRank `json:"top"`
}

// BFSResult summarizes a BFS run.
type BFSResult struct {
	Source  uint64 `json:"source"`
	Reached uint64 `json:"reached"`
	Levels  int    `json:"levels"`
}

// DegreeResult summarizes degree centrality. DegreeSum equals
// out+in degree summed over all vertices — exactly 2x the edge count,
// which the load generator's spot check exploits.
type DegreeResult struct {
	DegreeSum uint64 `json:"degree_sum"`
	MaxDegree uint64 `json:"max_degree"`
}

// errExecPanicked marks a plan whose execution panicked — a server-side
// failure (500), unlike a plan the executor rejects (422).
var errExecPanicked = errors.New("queryd: plan execution panicked")

// execute runs p against ds on the query's runtime view qrt — its
// priority and its profile, so every loop the query runs, and the
// colstore kernels under them, annotate that profile — and returns the
// wire-form result. Every plan execution passes this one recover: a
// kernel panic, which the runtime re-raises on the goroutine that
// submitted the loop, comes back as errExecPanicked instead of unwinding
// the handler.
func execute(qrt *rts.Runtime, ds *Dataset, p *plan.Plan) (_ any, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", errExecPanicked, v)
		}
	}()
	switch p.Op {
	case plan.OpAggregate, plan.OpGroupBy:
		if ds.Table == nil {
			return nil, fmt.Errorf("queryd: dataset %q has no table", ds.Name)
		}
		tbl := ds.Table.WithRuntime(qrt)
		if p.Op == plan.OpAggregate {
			v, err := tbl.Aggregate(p.Agg, p.Column, p.Preds...)
			if err != nil {
				return nil, err
			}
			return AggregateResult{Value: v}, nil
		}
		rows, err := tbl.GroupBy(p.Key, p.Agg, p.Column, p.Preds...)
		if err != nil {
			return nil, err
		}
		groups := make([]GroupResult, len(rows))
		for i, r := range rows {
			groups[i] = GroupResult{Key: r.Key, Value: r.Value}
		}
		return GroupByResult{Groups: groups}, nil
	case plan.OpPageRank:
		if ds.Ranker == nil {
			return nil, fmt.Errorf("queryd: dataset %q has no graph", ds.Name)
		}
		cfg := analytics.DefaultPageRankConfig()
		cfg.MaxIters = p.Iters
		var res PageRankResult
		iters, err := ds.Ranker.Run(qrt, cfg, func(ranks *core.SmartArray) {
			res.RankSum, res.Top = summarizeRanks(ranks)
		})
		if err != nil {
			return nil, err
		}
		res.Iters = iters
		return res, nil
	case plan.OpBFS:
		if ds.Graph == nil {
			return nil, fmt.Errorf("queryd: dataset %q has no graph", ds.Name)
		}
		levels, depth, _, err := analytics.BFS(qrt, ds.Graph, p.Source)
		if err != nil {
			return nil, err
		}
		res := BFSResult{Source: p.Source, Levels: depth}
		for _, l := range levels {
			if l >= 0 {
				res.Reached++
			}
		}
		return res, nil
	case plan.OpDegree:
		if ds.Graph == nil {
			return nil, fmt.Errorf("queryd: dataset %q has no graph", ds.Name)
		}
		out, _, err := analytics.DegreeCentrality(qrt, ds.Graph)
		if err != nil {
			return nil, err
		}
		defer out.Free()
		n := out.Length()
		// Each batch reads one View under the loop's own pin.
		sum := qrt.ReduceSum(0, n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			v := out.View(w.Socket)
			return v.Reduce(lo, hi, core.ReduceSum, nil, nil)
		})
		max := qrt.ReduceMax(0, n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			v := out.View(w.Socket)
			return v.Reduce(lo, hi, core.ReduceMax, nil, nil)
		})
		return DegreeResult{DegreeSum: sum, MaxDegree: max}, nil
	default:
		return nil, fmt.Errorf("queryd: unexecutable op %q", p.Op)
	}
}

// summarizeRanks reads a rank array's payload words in place, in
// DefaultGrain chunks — the served path never copies the n-element
// vector — and returns the ranks' sum, taken in vertex order, and the
// topK highest-ranked vertices. It runs outside any loop, so it pins the
// memory for as long as it holds the words (DESIGN §5f).
func summarizeRanks(ranks *core.SmartArray) (float64, []VertexRank) {
	mem := ranks.Memory()
	mem.Pin()
	defer mem.Unpin()
	words := analytics.Words64(ranks, 0)
	// Local, not named results: the deferred Unpin would keep named
	// results in memory, a store and a reload per element of the sum.
	var sum float64
	top := make([]VertexRank, 0, min(topK, len(words)))
	for lo := 0; lo < len(words); lo += rts.DefaultGrain {
		chunk := words[lo:min(lo+rts.DefaultGrain, len(words))]
		for _, bits := range chunk {
			sum += math.Float64frombits(bits)
		}
		top = mergeTopRanks(top, topK, uint64(lo), chunk)
	}
	return sum, top
}

// mergeTopRanks merges the ranks of vertices base, base+1, ... — doubles
// bit-cast to uint64 — into top, a window of at most k entries, highest
// first, equal ranks by lower vertex id. A vertex enters only by beating
// the window's last entry, so the common case is one comparison, and the
// window is never regrown past cap k.
func mergeTopRanks(top []VertexRank, k int, base uint64, bits []uint64) []VertexRank {
	if k <= 0 {
		return top
	}
	for i, b := range bits {
		r := math.Float64frombits(b)
		if len(top) == k && !(r > top[k-1].Rank) {
			continue // ties keep the earlier (lower) vertex
		}
		if len(top) < k {
			top = append(top, VertexRank{})
		}
		j := len(top) - 1
		for ; j > 0 && top[j-1].Rank < r; j-- {
			top[j] = top[j-1]
		}
		top[j] = VertexRank{Vertex: base + uint64(i), Rank: r}
	}
	return top
}
