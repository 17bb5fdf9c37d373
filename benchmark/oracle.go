package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"smartarrays/internal/analytics"
	"smartarrays/internal/colstore"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/queryd"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// local is the benchmark's own copy of the served dataset behind an
// in-process queryd server: the oracle reads its decoded columns, the
// traced run replays plans on its scheduler runtime, and the queryd and
// rts probes drive its handler and loops.
type local struct {
	srv *queryd.Server
	ds  *queryd.Dataset
}

func datasetSpec(seed uint64) queryd.DatasetSpec {
	return queryd.DatasetSpec{Name: datasetName, Rows: datasetRows, Vertices: datasetVertices, Degree: 8, Seed: datasetSeed(seed)}
}

// newLocal builds the same dataset the child saserve builds for seed, on
// the same machine preset, with the result cache at the serving default.
func newLocal(seed uint64) (*local, error) {
	cfg := queryd.DefaultConfig()
	cfg.CacheEntries = 1024
	srv, err := queryd.NewServer(rts.New(machine.X52Small()), cfg, []queryd.DatasetSpec{datasetSpec(seed)}, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("building the in-process dataset: %w", err)
	}
	ds, err := srv.Dataset(datasetName)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &local{srv: srv, ds: ds}, nil
}

func (l *local) close() { l.srv.Close() }

// buildGraph builds the served dataset's graph alone, which does not
// depend on the table: all a measured graph_rank run needs for its oracle.
func buildGraph(seed uint64) (*queryd.Dataset, error) {
	spec := datasetSpec(seed)
	spec.Rows = 0
	return queryd.BuildDataset(rts.New(machine.X52Small()), spec)
}

// oracle answers table plans with plain loops over decoded columns. It
// shares no code with the scan pipeline it checks.
type oracle struct {
	cols map[string][]uint64
	// ascending marks columns whose values never decrease, where an
	// inequality selects one contiguous row range; the loops then visit
	// only that range, which keeps checking every scan_selective response
	// affordable. Every predicate is still evaluated on every visited row.
	ascending map[string]bool
	// maxValue is each column's largest value; a group-by key with a small
	// domain is folded into a slice instead of a map.
	maxValue map[string]uint64

	// memo holds each distinct request body's expected result, computed
	// once however many goroutines ask: repeat_hot re-sends 256 bodies.
	mu   sync.Mutex
	memo map[string]*expected
}

type expected struct {
	once sync.Once
	want any
	err  error
}

func newOracle(tbl *colstore.Table) (*oracle, error) {
	o := &oracle{cols: map[string][]uint64{}, ascending: map[string]bool{}, maxValue: map[string]uint64{}, memo: map[string]*expected{}}
	for _, name := range tbl.Columns() {
		col, err := tbl.Column(name)
		if err != nil {
			return nil, err
		}
		vals := col.Array().DecodeAll()
		o.cols[name] = vals
		o.ascending[name] = sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] })
		o.maxValue[name] = slices.Max(vals)
	}
	return o, nil
}

// The oracle's loops are branch-free: keep[i] is 1 for a selected row and 0
// otherwise, predicates AND into it and folds multiply by it. At the 50%
// selectivities scan_unique sends, a branch per row mispredicts every
// other row, and checking repeat_hot's 256 plans then takes longer than
// the window that produced them.

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// filter clears keep[i] where vals[i] fails "op c".
func filter(keep []uint8, vals []uint64, op colstore.CmpOp, c uint64) {
	switch op {
	case colstore.Eq:
		for i, v := range vals {
			keep[i] &= b2u(v == c)
		}
	case colstore.Ne:
		for i, v := range vals {
			keep[i] &= b2u(v != c)
		}
	case colstore.Lt:
		for i, v := range vals {
			keep[i] &= b2u(v < c)
		}
	case colstore.Le:
		for i, v := range vals {
			keep[i] &= b2u(v <= c)
		}
	case colstore.Gt:
		for i, v := range vals {
			keep[i] &= b2u(v > c)
		}
	default:
		for i, v := range vals {
			keep[i] &= b2u(v >= c)
		}
	}
}

// rowRange narrows [0, rows) to the rows that can satisfy every inequality
// on an ascending column.
func (o *oracle) rowRange(preds []colstore.Pred, rows int) (lo, hi int) {
	lo, hi = 0, rows
	for _, p := range preds {
		vals := o.cols[p.Column]
		if !o.ascending[p.Column] || p.Op == colstore.Eq || p.Op == colstore.Ne {
			continue
		}
		// first is the first row satisfying a > or >= predicate, or the
		// first row failing a < or <= one.
		first := sort.Search(rows, func(i int) bool {
			switch p.Op {
			case colstore.Lt, colstore.Ge:
				return vals[i] >= p.Value
			default: // Le, Gt
				return vals[i] > p.Value
			}
		})
		if p.Op == colstore.Ge || p.Op == colstore.Gt {
			lo = max(lo, first)
		} else {
			hi = min(hi, first)
		}
	}
	return lo, hi
}

// fold is one aggregate accumulator with colstore's conventions: min and
// max of no rows are 0. The minimum is kept complemented so that the zero
// value is an empty fold.
type fold struct {
	sum, count, max, notMin uint64
}

// add folds v in when k is 1 and changes nothing when k is 0.
func (f *fold) add(v uint64, k uint8) {
	m := -uint64(k) // all ones or zero
	f.sum += v & m
	f.count += uint64(k)
	if x := v & m; x > f.max {
		f.max = x
	}
	if x := ^v & m; x > f.notMin {
		f.notMin = x
	}
}

func (f *fold) result(agg colstore.Agg) uint64 {
	switch {
	case agg == colstore.Sum:
		return f.sum
	case agg == colstore.Count:
		return f.count
	case f.count == 0:
		return 0
	case agg == colstore.Min:
		return ^f.notMin
	default:
		return f.max
	}
}

// answer computes the expected wire result of an aggregate or groupby plan:
// queryd.AggregateResult or queryd.GroupByResult (groups with at least one
// selected row, ascending by key).
func (o *oracle) answer(p *plan.Plan) (any, error) {
	target, ok := o.cols[p.Column]
	if !ok {
		return nil, fmt.Errorf("oracle: no column %q", p.Column)
	}
	predCols := make([][]uint64, len(p.Preds))
	for i, pr := range p.Preds {
		if predCols[i], ok = o.cols[pr.Column]; !ok {
			return nil, fmt.Errorf("oracle: no column %q", pr.Column)
		}
	}
	var key []uint64
	var dense []fold
	sparse := map[uint64]*fold{}
	if p.Op == plan.OpGroupBy {
		if key, ok = o.cols[p.Key]; !ok {
			return nil, fmt.Errorf("oracle: no column %q", p.Key)
		}
		if o.maxValue[p.Key] < 1<<16 {
			dense = make([]fold, o.maxValue[p.Key]+1)
		}
	}
	var total fold
	lo, hi := o.rowRange(p.Preds, len(target))
	keep := make([]uint8, hi-lo)
	for i := range keep {
		keep[i] = 1
	}
	for i, pr := range p.Preds {
		filter(keep, predCols[i][lo:hi], pr.Op, pr.Value)
	}
	switch {
	case key == nil:
		for i, k := range keep {
			total.add(target[lo+i], k)
		}
	case dense != nil:
		for i, k := range keep {
			dense[key[lo+i]].add(target[lo+i], k)
		}
	default:
		for i, k := range keep {
			if k == 0 {
				continue
			}
			g := sparse[key[lo+i]]
			if g == nil {
				g = &fold{}
				sparse[key[lo+i]] = g
			}
			g.add(target[lo+i], 1)
		}
	}
	if key == nil {
		return queryd.AggregateResult{Value: total.result(p.Agg)}, nil
	}
	res := queryd.GroupByResult{Groups: []queryd.GroupResult{}}
	for k := range dense {
		if dense[k].count > 0 {
			res.Groups = append(res.Groups, queryd.GroupResult{Key: uint64(k), Value: dense[k].result(p.Agg)})
		}
	}
	for k, g := range sparse {
		res.Groups = append(res.Groups, queryd.GroupResult{Key: k, Value: g.result(p.Agg)})
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	return res, nil
}

// wireResponse is the part of a /query reply the harness reads.
type wireResponse struct {
	Op     string          `json:"op"`
	Result json.RawMessage `json:"result"`
	WallMS float64         `json:"wall_ms"`
	Cached bool            `json:"cached"`
	Shared bool            `json:"shared"`
	// Profile is present on explain replies.
	Profile *wireProfile `json:"profile"`
}

type wireProfile struct {
	Stages []struct {
		Name string `json:"name"`
		NS   int64  `json:"ns"`
	} `json:"stages"`
	Columns []struct {
		Chunks uint64 `json:"chunks"`
		Pruned uint64 `json:"chunks_pruned"`
	} `json:"columns"`
	Loops   int `json:"loops"`
	Morsels int `json:"morsels_claimed"`
}

// checkTable compares a table-plan reply with the oracle's answer for the
// request body that produced it.
func (o *oracle) checkTable(body, reply []byte) error {
	o.mu.Lock()
	exp := o.memo[string(body)]
	if exp == nil {
		exp = &expected{}
		o.memo[string(body)] = exp
	}
	o.mu.Unlock()
	exp.once.Do(func() {
		var p *plan.Plan
		if p, exp.err = plan.Parse(body); exp.err == nil {
			exp.want, exp.err = o.answer(p)
		}
	})
	if exp.err != nil {
		return exp.err
	}
	want := exp.want
	var resp wireResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	var same bool
	switch w := want.(type) {
	case queryd.AggregateResult:
		var got queryd.AggregateResult
		if err := json.Unmarshal(resp.Result, &got); err != nil {
			return fmt.Errorf("decoding result: %w", err)
		}
		same = got == w
	case queryd.GroupByResult:
		var got queryd.GroupByResult
		if err := json.Unmarshal(resp.Result, &got); err != nil {
			return fmt.Errorf("decoding result: %w", err)
		}
		same = slices.Equal(got.Groups, w.Groups)
	}
	if !same {
		return fmt.Errorf("wrong answer to %s: got %s, want %+v", body, resp.Result, want)
	}
	return nil
}

// verifier checks one run's replies: table plans against the oracle and
// graph_rank against the rank oracle, both shared by the runs of one
// harness invocation; what a graph_rank run has seen so far is its own.
type verifier struct {
	table *oracle
	rank  *rankChecker
}

func newVerifier(wl string, orc *oracle, ranks *rankOracle) *verifier {
	if wl == wlGraphRank {
		return &verifier{rank: &rankChecker{want: ranks}}
	}
	return &verifier{table: orc}
}

func (v *verifier) check(body, reply []byte) error {
	if v.table != nil {
		return v.table.checkTable(body, reply)
	}
	return v.rank.check(reply)
}

// rankOracle is the expected answer to the graph_rank plan: a plain power
// iteration over the decoded reverse CSR, sharing no code with
// analytics.PageRank. Like the served algorithm it gives sinks no
// teleport, so the rank mass falls short of 1 by what the graph's sinks
// absorb: 0.01% to 0.3% after five iterations, depending on the seed.
type rankOracle struct {
	iters   int
	ranks   []float64
	rankSum float64
	sorted  []float64 // ranks, largest first
}

func newRankOracle(g *graph.SmartCSR, maxIters int) *rankOracle {
	cfg := analytics.DefaultPageRankConfig() // damping and tolerance are the server's defaults
	begin, rbegin, redge := g.Begin.DecodeAll(), g.RBegin.DecodeAll(), g.REdge.DecodeAll()
	n := int(g.NumVertices)
	ranks, next, inv := make([]float64, n), make([]float64, n), make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
		if deg := begin[v+1] - begin[v]; deg > 0 {
			inv[v] = 1 / float64(deg)
		}
	}
	o := &rankOracle{}
	for o.iters < maxIters {
		var diff float64
		for v := range next {
			var sum float64
			for _, u := range redge[rbegin[v]:rbegin[v+1]] {
				sum += ranks[u] * inv[u]
			}
			next[v] = (1-cfg.Damping)/float64(n) + cfg.Damping*sum
			diff += math.Abs(next[v] - ranks[v])
		}
		ranks, next = next, ranks
		o.iters++
		if diff < cfg.Tol {
			break
		}
	}
	o.ranks = ranks
	for _, r := range ranks {
		o.rankSum += r
	}
	o.sorted = slices.Clone(ranks)
	slices.SortFunc(o.sorted, func(a, b float64) int { return cmp.Compare(b, a) })
	return o
}

// near allows for the server summing in another order than the oracle.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

func (o *rankOracle) check(res queryd.PageRankResult) error {
	if res.Iters != o.iters {
		return fmt.Errorf("pagerank ran %d iterations, the oracle %d", res.Iters, o.iters)
	}
	if !near(res.RankSum, o.rankSum) {
		return fmt.Errorf("pagerank rank_sum %v, the oracle's %v", res.RankSum, o.rankSum)
	}
	if len(res.Top) == 0 || len(res.Top) > len(o.ranks) {
		return fmt.Errorf("pagerank listed %d top vertices of %d", len(res.Top), len(o.ranks))
	}
	for i, t := range res.Top {
		if t.Vertex >= uint64(len(o.ranks)) || !near(t.Rank, o.ranks[t.Vertex]) || !near(t.Rank, o.sorted[i]) {
			return fmt.Errorf("pagerank top[%d] is vertex %d at %v, the oracle's rank %d is %v", i, t.Vertex, t.Rank, i, o.sorted[i])
		}
	}
	return nil
}

// agrees holds analytics.PageRank run in-process on the same graph to the
// oracle: the traced run's check that its replays time the served plan.
func (o *rankOracle) agrees(iters int, rankSum float64) error {
	if iters != o.iters || !near(rankSum, o.rankSum) {
		return fmt.Errorf("in-process pagerank ran %d iterations to rank sum %v, the oracle %d to %v",
			iters, rankSum, o.iters, o.rankSum)
	}
	return nil
}

// rankChecker holds one run's graph_rank replies to the rank oracle and to
// each other: the answer never changes within a run.
type rankChecker struct {
	want  *rankOracle
	mu    sync.Mutex
	first []byte
}

func (c *rankChecker) check(reply []byte) error {
	var resp wireResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	var res queryd.PageRankResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if err := c.want.check(res); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first == nil {
		c.first = append([]byte(nil), resp.Result...)
	} else if !bytes.Equal(c.first, resp.Result) {
		return fmt.Errorf("pagerank result changed within the run: %s then %s", c.first, resp.Result)
	}
	return nil
}
