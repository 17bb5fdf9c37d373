package colstore

import (
	"sort"
	"sync"

	"smartarrays/internal/core"
	"smartarrays/internal/rts"
)

// The per-row reference implementations every property test pins the scan
// executor against (and the masked-vs-per-row benchmarks measure). They
// share no code with it: one virtual Get per row per column.

// eval applies the operator.
func (op CmpOp) eval(a, b uint64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	default:
		return a >= b
	}
}

// add folds one row into every field of the state, whatever its
// aggregate.
func (s *aggState) add(v uint64) {
	s.sum += v
	s.count++
	s.min = min(s.min, v)
	s.max = max(s.max, v)
}

// aggregateScalar is the pre-bitmap per-row general path (one virtual Get
// per row per column), kept as the reference implementation the property
// tests pin Aggregate against and the masked-vs-per-row benchmarks
// measure.
func (t *Table) aggregateScalar(agg Agg, column string, preds ...Pred) (uint64, error) {
	target, err := t.Column(column)
	if err != nil {
		return 0, err
	}
	predCols, err := t.resolvePreds(preds)
	if err != nil {
		return 0, err
	}
	workers := t.rt.Workers()
	locals := make([]aggState, len(workers))
	// Representation snapshots resolved once per worker (core.View), so a
	// concurrent Reencode cannot tear the scan mid-pass.
	targetViews := make([]core.View, len(workers))
	predViews := make([][]core.View, len(workers))
	for i, w := range workers {
		locals[i] = newAggState(agg)
		targetViews[i] = target.arr.View(w.Socket)
		predViews[i] = make([]core.View, len(predCols))
		for j, pc := range predCols {
			predViews[i][j] = pc.arr.View(w.Socket)
		}
	}
	t.rt.ParallelFor(0, t.rows, 0, func(w *rts.Worker, lo, hi uint64) {
		local := &locals[w.ID]
		targetView := &targetViews[w.ID]
		views := predViews[w.ID]
		for row := lo; row < hi; row++ {
			match := true
			for i := range predCols {
				if !preds[i].Op.eval(views[i].Get(row), preds[i].Value) {
					match = false
					break
				}
			}
			if match {
				local.add(targetView.Get(row))
			}
		}
	})
	total := newAggState(agg)
	for i := range locals {
		total.merge(locals[i])
	}
	return total.result(), nil
}

// groupByScalar is the pre-bitmap GroupBy (per-row predicate Gets, one
// local map per batch merged under a mutex), kept as the reference the
// property tests pin GroupBy against and the benchmarks measure.
func (t *Table) groupByScalar(keyColumn string, agg Agg, column string, preds ...Pred) ([]GroupRow, error) {
	key, err := t.Column(keyColumn)
	if err != nil {
		return nil, err
	}
	target, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	predCols, err := t.resolvePreds(preds)
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	groups := map[uint64]*aggState{}
	t.rt.ParallelFor(0, t.rows, 0, func(w *rts.Worker, lo, hi uint64) {
		local := map[uint64]*aggState{}
		keyView := key.arr.View(w.Socket)
		targetView := target.arr.View(w.Socket)
		views := make([]core.View, len(predCols))
		for i, pc := range predCols {
			views[i] = pc.arr.View(w.Socket)
		}
		for row := lo; row < hi; row++ {
			match := true
			for i := range predCols {
				if !preds[i].Op.eval(views[i].Get(row), preds[i].Value) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			k := keyView.Get(row)
			st, ok := local[k]
			if !ok {
				s := newAggState(agg)
				st = &s
				local[k] = st
			}
			st.add(targetView.Get(row))
		}
		mu.Lock()
		for k, st := range local {
			g, ok := groups[k]
			if !ok {
				s := newAggState(agg)
				g = &s
				groups[k] = g
			}
			g.merge(*st)
		}
		mu.Unlock()
	})

	rows := make([]GroupRow, 0, len(groups))
	for k, st := range groups {
		rows = append(rows, GroupRow{Key: k, Value: st.result()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows, nil
}
