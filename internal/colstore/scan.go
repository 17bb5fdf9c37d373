// The table scan executor. One query is one parallel pass over the live
// runs of the table: each batch builds the conjunction's selection bitmap
// (predicates evaluate chunk-at-a-time into 64-bit match masks through
// the columns' chunk-codec dispatch and zone pruning, the masks AND across
// predicates with dead chunks short-circuiting later ones), then folds the
// surviving rows into per-worker accumulators, merged once after the loop
// barrier. Table.Aggregate, Table.GroupBy and MultiScan all run this one
// pass. A lone MIN/MAX runs the same loop body over its best super zones
// first, in waves (zoneWalk), merging between them.
package colstore

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// ScanQuery describes one query of a pass: an Aggregate (empty Key) or
// GroupBy (Key set) with a conjunctive predicate list.
type ScanQuery struct {
	Agg    Agg
	Column string
	// Key selects grouped aggregation when non-empty.
	Key   string
	Preds []Pred
}

// ScanResult is one query's answer: Value for aggregates, Groups for
// grouped queries (sorted by key, same wire shape as GroupBy).
type ScanResult struct {
	Value  uint64
	Groups []GroupRow
}

// scanState is one query's state for a single whole-table pass: resolved
// columns, the ordered predicate list, and one record per worker. run
// drives it once and returns its result.
type scanState struct {
	agg     Agg
	grouped bool
	target  *Column
	key     *Column
	// predCols/preds are the conjunction in evaluation order (orderPreds).
	predCols []*Column
	preds    []Pred
	// Dense grouping keys (domain slots) index a worker's grouped
	// accumulators directly, wide ones through a map.
	dense  bool
	domain uint64

	// workers[w] is worker w's record of the pass, the only per-query
	// state a batch writes; fold and result read it after the barrier.
	workers []workerRecord
}

// workerRecord is one worker's record of a pass: its scalar accumulator,
// its grouped accumulators (built on its first surviving batch) and its
// column slots. Every batch writes its worker's record, so records are
// padded to two cache lines (aggState is 40 bytes): neighbours never
// share one. The dense GroupBy vectors are not padded — 4096 slots per
// worker already spread the writes.
type workerRecord struct {
	acc   aggState
	fold  *rowFold
	slots []colSlot
	_     [56]byte
}

// newScanState resolves q against the table and allocates its per-worker
// records (column slots and group storage are lazy).
func (t *Table) newScanState(q ScanQuery) (*scanState, error) {
	target, err := t.Column(q.Column)
	if err != nil {
		return nil, err
	}
	predCols, err := t.resolvePreds(q.Preds)
	if err != nil {
		return nil, err
	}
	preds := append([]Pred(nil), q.Preds...)
	predCols, preds = orderPreds(predCols, preds)
	s := &scanState{
		agg:      q.Agg,
		target:   target,
		predCols: predCols,
		preds:    preds,
		workers:  make([]workerRecord, len(t.rt.Workers())),
	}
	for i := range s.workers {
		s.workers[i].acc = newAggState(q.Agg)
	}
	if q.Key != "" {
		key, err := t.Column(q.Key)
		if err != nil {
			return nil, err
		}
		s.grouped = true
		s.key = key
		if key.arr.Bits() <= denseKeyMaxBits {
			s.dense = true
			s.domain = key.arr.Codec().MaxValue() + 1
		}
	}
	return s, nil
}

// A worker's column slots are [key, target, predicates in evaluation
// order...]; a scalar pass leaves the key slot empty.
const (
	keySlot = iota
	targetSlot
	predSlot
)

// record returns worker w's record, taking its column views on the
// worker's first batch of the pass (owner-only, like the accumulators).
// Every later batch reads them, across all of a zone walk's wave loops,
// under the pass's pin (run).
func (s *scanState) record(w *rts.Worker) *workerRecord {
	r := &s.workers[w.ID]
	if r.slots == nil {
		r.slots = make([]colSlot, predSlot+len(s.preds))
		if s.grouped {
			r.slots[keySlot].view = s.key.arr.View(w.Socket)
		}
		r.slots[targetSlot].view = s.target.arr.View(w.Socket)
		for i, col := range s.predCols {
			r.slots[predSlot+i].view = col.arr.View(w.Socket)
		}
	}
	return r
}

// fold folds the per-worker records' column accounting once, after the
// pass. Each predicate's evaluated and surviving rows go to its column's
// access profile (the observed selectivity orderPreds reads), whether or
// not a query profile is attached; with one, every column's chunk counts
// go into it as ColumnProfile entries. dead is the chunk count of the runs
// plan-time pruning kept out of the loop: pruned for every one of the
// state's columns.
func (s *scanState) fold(prof *obs.QueryProfile, dead uint64) {
	totals := make([]colSlot, predSlot+len(s.preds))
	for i := range totals {
		totals[i].Pruned = dead
	}
	for _, r := range s.workers {
		for i, c := range r.slots {
			totals[i].ScanCounts.Add(c.ScanCounts)
			totals[i].evals += c.evals
			totals[i].hits += c.hits
		}
	}
	preds := totals[predSlot:]
	for i, col := range s.predCols {
		col.arr.AccountPredicate(preds[i].evals, preds[i].hits)
	}
	if prof == nil {
		return
	}
	// Predicates are reported in canonical order, sorted by (column, op,
	// value) since AND commutes, whatever order orderPreds evaluated them
	// in; the stable sort keeps duplicates in evaluation order.
	order := make([]int, len(s.preds))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		pa, pb := s.preds[a], s.preds[b]
		return cmp.Or(cmp.Compare(pa.Column, pb.Column), cmp.Compare(pa.Op, pb.Op), cmp.Compare(pa.Value, pb.Value))
	})
	for _, i := range order {
		prof.AddColumn(columnProfile(s.predCols[i], obs.RolePredicate, preds[i].ScanCounts))
	}
	if s.grouped {
		prof.AddColumn(columnProfile(s.key, obs.RoleKey, totals[keySlot].ScanCounts))
	}
	if s.grouped || s.agg != Count {
		// A scalar count never touches the target column; everything else
		// folds it under the mask.
		prof.AddColumn(columnProfile(s.target, obs.RoleTarget, totals[targetSlot].ScanCounts))
	}
}

// run drives s over the table in one parallel pass — the only parallel
// loop colstore starts — and returns its result. Pruning happens first, at
// plan time (liveRuns): the loop covers only the row runs the conjunction
// can still match, and the rest is accounted in bulk after it. A lone
// scalar MIN/MAX over an indexed column runs the same loop once per wave
// of its zone walk instead, and stops once no live super zone left can
// beat its answer. Per batch the selection bitmap is built into the
// table's per-worker mask scratch, then the surviving rows fold, all
// through the worker's column views. Those outlive each wave loop's own
// pin, so the pass holds one of its own. Runs through the receiver's
// runtime; fold reports the pass's accounting.
func (t *Table) run(s *scanState) ScanResult {
	mem := t.rt.Memory()
	mem.Pin()
	defer mem.Unpin()
	runs, dead := liveRuns(t.rows, s)
	body := func(w *rts.Worker, blo, bhi uint64) {
		rec, scr := s.record(w), &t.workers[w.ID]
		var masks []uint64
		hits := bhi - blo
		if len(s.preds) > 0 {
			_, n := core.MaskChunks(blo, bhi)
			masks = scr.maskWords(n)
			hits = buildMasks(blo, bhi, s.preds, masks, rec.slots[predSlot:])
		}
		s.foldBatch(blo, bhi, masks, hits, rec, scr)
	}
	spans, walk := runs, newZoneWalk(s, runs)
	if walk != nil {
		spans = walk.next()
	}
	for len(spans) > 0 {
		t.rt.ParallelForSpans(spans, 0, body)
		spans = walk.next()
	}
	if walk != nil {
		// Live super zones the walk never visited are dead runs too.
		_, chunks := core.MaskChunks(0, t.rows)
		dead = chunks - walk.chunks
	}
	s.fold(t.rt.Profile(), dead)
	return s.result()
}

// superRows is the row span of one super zone, the granularity of
// plan-time pruning.
const superRows = encoding.ZoneFanout * bitpack.ChunkSize

// liveRuns is the plan-time pruning step. It resolves s's conjunction
// against the super-zone level of its predicate columns' zone indexes over
// rows [0, rows) — one SuperVerdict per 4096 rows, never a fine entry; a
// super zone is dead when any one predicate proves it empty — and returns
// the maximal row runs that stay live (everything, when nothing has an
// index to prune by). dead is the number of chunks in no run. Inside a
// run nothing is decided here: the mask build still resolves fine zone
// entries and evaluates the rest.
//
// Any zone-index snapshot is sound to prune by, even one a concurrent
// Reencode replaces mid-pass, since every representation's index bounds
// the same values. Memory is per run, not per super zone or batch: a pass
// that prunes nothing allocates one span.
func liveRuns(rows uint64, s *scanState) (runs []rts.Span, dead uint64) {
	// One pruner per predicate that has an index to prune by.
	type pruner struct {
		zones *encoding.ZoneIndex
		op    bitpack.Cmp
		value uint64
	}
	var pruners []pruner
	for i, col := range s.predCols {
		if z := col.arr.ZoneIndex(); z != nil {
			pruners = append(pruners, pruner{z, s.preds[i].Op.Cmp(), s.preds[i].Value})
		}
	}
	superLive := func(sz uint64) bool {
		for _, p := range pruners {
			if p.zones.SuperVerdict(sz, p.op, p.value) == encoding.ZoneNone {
				return false
			}
		}
		return true
	}
	_, dead = core.MaskChunks(0, rows)
	for sz, end := uint64(0), (rows-1)/superRows+1; sz < end; sz++ {
		if !superLive(sz) {
			continue
		}
		run := rts.Span{Lo: sz * superRows}
		for sz+1 < end && superLive(sz+1) {
			sz++
		}
		run.Hi = min(rows, (sz+1)*superRows)
		_, chunks := core.MaskChunks(run.Lo, run.Hi)
		dead -= chunks
		runs = append(runs, run)
	}
	return runs, dead
}

// zoneWalk is the plan-time step that orders a lone scalar MIN or MAX
// over a column with a zone index: run visits the super zones liveRuns
// left live best bound first, in waves — one super zone first, then each
// wave at least one more than all before it, so at most
// ceil(log2(supers))+1 loops — merging the workers' partials between
// waves, and stops at the first unvisited super zone whose bound cannot
// strictly beat the answer so far.
//
// A super zone's key orders the walk ascending: its zone max, bitwise
// inverted, for MAX; its zone min for MIN. A predicate on the target
// column clamps the bound (`amount <= t` caps a MAX at t), so no key is
// below clamp. A wave is every unvisited key up to a threshold picked by
// radix select over the keys, ties included: the walk keeps one span list
// and a few running totals, never a per-super-zone slice.
type zoneWalk struct {
	state *scanState
	zones *encoding.ZoneIndex
	runs  []rts.Span
	max   bool
	clamp uint64
	// Keys below from are visited; done once every key is.
	from    uint64
	done    bool
	visited uint64 // super zones
	chunks  uint64 // in the visited super zones; the rest are dead
	spans   []rts.Span
}

// newZoneWalk returns the walk of s over runs when s is a scalar MIN or
// MAX over a column with a zone index, and nil for every other state.
func newZoneWalk(s *scanState, runs []rts.Span) *zoneWalk {
	z := s.target.arr.ZoneIndex()
	if s.grouped || (s.agg != Min && s.agg != Max) || z == nil {
		return nil
	}
	w := &zoneWalk{state: s, zones: z, runs: runs, max: s.agg == Max}
	for i, col := range s.predCols {
		if col != s.target {
			continue
		}
		// The bound a predicate puts on every row it selects. Lt 0 and
		// Gt ^0 select nothing, so the bound their wrap-around gives is
		// as sound as any.
		switch p := s.preds[i]; {
		case p.Op == Eq, w.max && p.Op == Le, !w.max && p.Op == Ge:
			w.clamp = max(w.clamp, w.key(p.Value))
		case w.max && p.Op == Lt:
			w.clamp = max(w.clamp, w.key(p.Value-1))
		case !w.max && p.Op == Gt:
			w.clamp = max(w.clamp, w.key(p.Value+1))
		}
	}
	return w
}

// key maps a value to walk order: ascending for MIN, descending for MAX.
func (w *zoneWalk) key(v uint64) uint64 {
	if w.max {
		return ^v
	}
	return v
}

// each calls fn with the rows and key of every unvisited live super zone,
// in table order.
func (w *zoneWalk) each(fn func(sp rts.Span, k uint64)) {
	for _, r := range w.runs {
		for lo := r.Lo; lo < r.Hi; lo += superRows {
			mn, mx := w.zones.SuperBounds(lo / superRows)
			k := mn
			if w.max {
				k = ^mx
			}
			if k = max(k, w.clamp); k >= w.from {
				fn(rts.Span{Lo: lo, Hi: min(r.Hi, lo+superRows)}, k)
			}
		}
	}
}

// next returns the next wave's spans, or nil when the walk is over (nil
// for a nil walk): no live super zone is left, or none whose key beats
// the answer the waves so far merged to.
func (w *zoneWalk) next() []rts.Span {
	if w == nil || w.done {
		return nil
	}
	var lo, hi, left uint64 = ^uint64(0), 0, 0
	w.each(func(_ rts.Span, k uint64) { lo, hi, left = min(lo, k), max(hi, k), left+1 })
	best := w.state.total()
	if left == 0 || best.count > 0 && lo >= w.key(best.result()) {
		w.done = true
		return nil
	}
	// The wave ends at the n-th smallest key, n one more than the super
	// zones visited so far: the smallest, first, which needs no select.
	theta, n := hi, w.visited+1
	switch {
	case n == 1:
		theta = lo
	case n < left:
		theta = w.nth(lo, hi, n)
	}
	w.spans = w.spans[:0]
	w.each(func(sp rts.Span, k uint64) {
		if k > theta {
			return
		}
		w.visited++
		_, c := core.MaskChunks(sp.Lo, sp.Hi)
		w.chunks += c
		if n := len(w.spans); n > 0 && w.spans[n-1].Hi == sp.Lo {
			w.spans[n-1].Hi = sp.Hi
		} else {
			w.spans = append(w.spans, sp)
		}
	})
	w.from, w.done = theta+1, theta == ^uint64(0)
	return w.spans
}

// nth returns the n-th smallest unvisited key, all of which lie in
// [lo, hi]: a radix select, one histogram pass per byte lo and hi differ
// in.
func (w *zoneWalk) nth(lo, hi, n uint64) uint64 {
	key := lo
	for shift := (bits.Len64(lo^hi)+7)/8*8 - 8; shift >= 0; shift -= 8 {
		var hist [256]uint64
		w.each(func(_ rts.Span, k uint64) {
			if k>>(shift+8) == key>>(shift+8) {
				hist[k>>shift&255]++
			}
		})
		d := uint64(0)
		for ; n > hist[d]; d++ {
			n -= hist[d]
		}
		key = key&^(255<<shift) | d<<shift
	}
	return key
}

// reduceOps maps a scalar aggregate to its fused fold; a count folds no
// column.
var reduceOps = [...]core.ReduceOp{Sum: core.ReduceSum, Min: core.ReduceMin, Max: core.ReduceMax}

// foldBatch folds the batch's hits selected rows — every row of [lo, hi)
// when masks is nil, the rows masks selects otherwise — into the worker's
// record: a scalar aggregate through the target view's fused range fold,
// masked under a selection, a grouped one through the row fold. It
// accounts the key and target chunks it touches; a dead selection
// touches none.
func (s *scanState) foldBatch(lo, hi uint64, masks []uint64, hits uint64, rec *workerRecord, scr *workerScratch) {
	_, n := core.MaskChunks(lo, hi)
	target := &rec.slots[targetSlot]
	if s.grouped {
		rec.slots[keySlot].account(n, masks)
		target.account(n, masks)
		if hits > 0 {
			s.foldRows(lo, hi, masks, rec, scr)
		}
		return
	}
	rec.acc.count += hits
	if s.agg == Count {
		return
	}
	sc := &target.ScanCounts
	if masks != nil {
		// A selection is counted by its dead words, not by the fold.
		target.account(n, masks)
		if hits == 0 {
			return
		}
		sc = nil
	}
	v := target.view.Reduce(lo, hi, reduceOps[s.agg], masks, sc)
	switch acc := &rec.acc; s.agg {
	case Sum:
		acc.sum += v
	case Min:
		acc.min = min(acc.min, v)
	default:
		acc.max = max(acc.max, v)
	}
}

// rowFold is one worker's grouped fold: one accumulator per group,
// indexed by key for dense keys and through slots, a key's index in
// states, for wide ones.
type rowFold struct {
	agg    Agg
	states []aggState
	slots  map[uint64]uint64
}

// fold adds the rows m selects, whose keys and values sit at m's set bits
// in b, to the accumulators. Wide keys are first replaced by their slots;
// then one loop per aggregate does only that aggregate's updates, so the
// aggregate is dispatched on per chunk, never per row.
func (f *rowFold) fold(m uint64, b *workerScratch) {
	if f.slots != nil {
		for r := m; r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			b.key[i] = f.slot(b.key[i])
		}
	}
	st := f.states
	switch f.agg {
	case Sum:
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			g := &st[b.key[i]]
			g.sum += b.val[i]
			g.count++
		}
	case Count:
		for ; m != 0; m &= m - 1 {
			st[b.key[bits.TrailingZeros64(m)]].count++
		}
	case Min:
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			g := &st[b.key[i]]
			g.min = min(g.min, b.val[i])
			g.count++
		}
	case Max:
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			g := &st[b.key[i]]
			g.max = max(g.max, b.val[i])
			g.count++
		}
	}
}

// slot returns wide key k's index in states, adding a state for a key
// the worker has not seen.
func (f *rowFold) slot(k uint64) uint64 {
	i, ok := f.slots[k]
	if !ok {
		i = uint64(len(f.states))
		f.slots[k] = i
		f.states = append(f.states, newAggState(f.agg))
	}
	return i
}

// foldRows feeds the batch's selected rows (all of them when masks is
// nil) into the grouped accumulators, chunk by chunk, reading the key and
// target through the worker's column views. A chunk whose mask
// is denser than bitpack.MaskSparseCutoff has its key and target decoded
// once into the worker's decode buffers; a sparser one pays two Gets per
// selected row into the same slots, which is cheaper than two whole-chunk
// decodes there.
func (s *scanState) foldRows(lo, hi uint64, masks []uint64, rec *workerRecord, bufs *workerScratch) {
	f := rec.fold
	if f == nil {
		f = s.newRowFold()
		rec.fold = f
	}
	key, target := &rec.slots[keySlot].view, &rec.slots[targetSlot].view
	first, n := core.MaskChunks(lo, hi)
	for c := uint64(0); c < n; c++ {
		base := (first + c) * bitpack.ChunkSize
		m := ^uint64(0)
		if masks != nil {
			m = masks[c]
		} else {
			if base < lo {
				m &= ^uint64(0) << (lo - base)
			}
			if end := base + bitpack.ChunkSize; end > hi {
				m &= ^uint64(0) >> (end - hi)
			}
		}
		if bits.OnesCount64(m) <= bitpack.MaskSparseCutoff {
			for r := m; r != 0; r &= r - 1 {
				i := bits.TrailingZeros64(r)
				bufs.key[i], bufs.val[i] = key.Get(base+uint64(i)), target.Get(base+uint64(i))
			}
		} else {
			key.DecodeChunk(first+c, &bufs.key)
			target.DecodeChunk(first+c, &bufs.val)
		}
		f.fold(m, bufs)
	}
}

// newRowFold allocates a worker's grouped accumulators, once per worker
// per pass (see workerRecord), on its first surviving batch.
func (s *scanState) newRowFold() *rowFold {
	f := &rowFold{agg: s.agg}
	if !s.dense {
		f.slots = map[uint64]uint64{}
		return f
	}
	f.states = make([]aggState, s.domain)
	for k := range f.states {
		f.states[k] = newAggState(s.agg)
	}
	return f
}

// total merges the per-worker scalar accumulators.
func (s *scanState) total() aggState {
	total := newAggState(s.agg)
	for i := range s.workers {
		total.merge(s.workers[i].acc)
	}
	return total
}

// result merges the per-worker accumulators into the final answer.
func (s *scanState) result() ScanResult {
	if !s.grouped {
		total := s.total()
		return ScanResult{Value: total.result()}
	}
	if s.dense {
		rows := make([]GroupRow, 0)
		for k := uint64(0); k < s.domain; k++ {
			total := newAggState(s.agg)
			for i := range s.workers {
				if f := s.workers[i].fold; f != nil {
					total.merge(f.states[k])
				}
			}
			if total.count > 0 {
				rows = append(rows, GroupRow{Key: k, Value: total.result()})
			}
		}
		return ScanResult{Groups: rows}
	}
	groups := map[uint64]aggState{}
	for i := range s.workers {
		f := s.workers[i].fold
		if f == nil {
			continue
		}
		for k, i := range f.slots {
			g, ok := groups[k]
			if !ok {
				g = newAggState(s.agg)
			}
			g.merge(f.states[i])
			groups[k] = g
		}
	}
	rows := make([]GroupRow, 0, len(groups))
	for k, st := range groups {
		rows = append(rows, GroupRow{Key: k, Value: st.result()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return ScanResult{Groups: rows}
}

// MultiScan runs queries one after another, each its own one-query pass,
// and returns their results in order. It shares nothing between queries;
// it stays exported for the benchmark harness's probe.
func (t *Table) MultiScan(queries []ScanQuery) ([]ScanResult, error) {
	results := make([]ScanResult, len(queries))
	for i, q := range queries {
		res, err := t.scan(q)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}
