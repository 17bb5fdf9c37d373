// Package colstore is a small in-memory column store built on smart
// arrays — the database-analytics use case that motivates the paper's
// aggregation workload (§5.1: "it can represent the summation of two
// columns") and its bit-compression lineage (§4.2's column-store related
// work).
//
// A Table is a set of named columns, each a bit-compressed smart array
// packed at the minimum width for its values. Each query is one scan pass
// (scan.go): its predicates build a selection bitmap chunk by chunk, and
// the surviving rows fold into an aggregate (sum/count/min/max) or a
// group-by. All scans run
// through the Callisto-style runtime, so placement and compression behave
// exactly as for raw smart arrays — a Table is just a bundle of them.
package colstore

import (
	"errors"
	"fmt"
	"sort"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// Column is one named, typed (unsigned integer) column.
type Column struct {
	Name string
	arr  *core.SmartArray
}

// Array exposes the backing smart array.
func (c *Column) Array() *core.SmartArray { return c.arr }

// Table is a fixed-length collection of columns.
type Table struct {
	rt      *rts.Runtime
	rows    uint64
	columns []*Column
	byName  map[string]*Column
	// workers holds one scratch record per worker, reused across passes.
	// Record i is touched only by whoever holds worker i's ownership flag,
	// one goroutine at a time (also across concurrent loops), so no
	// locking is needed; WithRuntime views share the backing array.
	workers []workerScratch
}

// workerScratch is one worker's scan buffers — the grouped fold's chunk
// decode buffers for key and target, and the selection bitmap's mask words
// (grown when a batch spans more chunks than any before) — padded to whole
// cache lines, so neighbours' writes never share one.
type workerScratch struct {
	key, val [bitpack.ChunkSize]uint64
	masks    []uint64
	_        [40]byte
}

// maskWords returns the worker's mask buffer cut to n words.
func (w *workerScratch) maskWords(n uint64) []uint64 {
	if uint64(cap(w.masks)) < n {
		w.masks = make([]uint64, n)
	}
	return w.masks[:n]
}

// Options configure column storage.
type Options struct {
	// Placement applies to every column.
	Placement memsim.Placement
	// Socket is the SingleSocket target.
	Socket int
	// AutoEncode re-encodes each added column to the smallest-payload
	// representation when one beats bit packing at the column's width
	// (sorted or clustered columns typically land on RLE or delta,
	// low-cardinality ones on a dictionary). Queries are unaffected: every scan pipeline
	// dispatches over the column's chunk codec. It analyzes the whole
	// column, so only AddColumn takes it; FillColumn refuses it.
	AutoEncode bool
}

// NewTable creates an empty table with the given row count.
func NewTable(rt *rts.Runtime, rows uint64) (*Table, error) {
	if rows == 0 {
		return nil, errors.New("colstore: zero rows")
	}
	return &Table{
		rt:      rt,
		rows:    rows,
		byName:  map[string]*Column{},
		workers: make([]workerScratch, len(rt.Workers())),
	}, nil
}

// Free releases every column.
func (t *Table) Free() {
	for _, c := range t.columns {
		c.arr.Free()
	}
	t.columns = nil
	t.byName = map[string]*Column{}
}

// Rows is the table length.
func (t *Table) Rows() uint64 { return t.rows }

// WithRuntime returns a read-only view of the table whose queries run
// through rt — typically a priority view (rts.Runtime.WithPriority) of
// the runtime the table was built on, so concurrent query handlers can
// tag their scans without mutating the shared table. The view shares the columns; do not AddColumn, Migrate,
// or Free through it.
func (t *Table) WithRuntime(rt *rts.Runtime) *Table {
	view := *t
	view.rt = rt
	return &view
}

// Columns lists the column names in definition order.
func (t *Table) Columns() []string {
	names := make([]string, len(t.columns))
	for i, c := range t.columns {
		names[i] = c.Name
	}
	return names
}

// PayloadBytes is the packed payload of all columns (one copy each).
func (t *Table) PayloadBytes() uint64 {
	var sum uint64
	for _, c := range t.columns {
		sum += c.arr.CompressedBytes()
	}
	return sum
}

// BuildWindow is how many elements a column build writes per InitRange
// call: FillColumn's fill sees one window-sized slice at a time (the last
// one shorter), so building a column never holds more than one window of
// plain values. A whole number of chunks, so every window but the last
// packs without a ragged edge.
const BuildWindow = 1024 * bitpack.ChunkSize

// AddColumn appends a column from values, packed at the minimum width
// with the table's placement.
func (t *Table) AddColumn(name string, values []uint64, opts Options) (*Column, error) {
	if uint64(len(values)) != t.rows {
		return nil, fmt.Errorf("colstore: column %q has %d values for %d rows", name, len(values), t.rows)
	}
	arr, err := t.pack(name, bitpack.MinBitsFor(values), opts, func(lo uint64, dst []uint64) {
		copy(dst, values[lo:])
	})
	if err != nil {
		return nil, err
	}
	if opts.AutoEncode {
		best, bestBytes := encoding.BitPacked, arr.CompressedBytes()
		stats := encoding.Analyze(values)
		for _, kind := range encoding.Kinds {
			if kind == encoding.BitPacked {
				continue
			}
			if b := encoding.EstimatePayloadBytes(kind, stats); b < bestBytes {
				best, bestBytes = kind, b
			}
		}
		if best != encoding.BitPacked {
			if _, err := arr.Reencode(best, opts.Socket); err != nil {
				arr.Free()
				return nil, err
			}
		}
	}
	return t.add(name, arr), nil
}

// FillColumn appends a column of the declared width whose values fill
// writes, one BuildWindow at a time: fill(lo, dst) must set dst[i] to row
// lo+i's value, and is called with ascending lo covering every row once.
// No table-length slice of plain values exists at any point. A value
// wider than bits panics with bitpack's overflow report. opts.AutoEncode
// is an error (see Options).
func (t *Table) FillColumn(name string, bits uint, opts Options, fill func(lo uint64, dst []uint64)) (*Column, error) {
	if opts.AutoEncode {
		return nil, fmt.Errorf("colstore: column %q: AutoEncode needs the column's values (use AddColumn)", name)
	}
	arr, err := t.pack(name, bits, opts, fill)
	if err != nil {
		return nil, err
	}
	return t.add(name, arr), nil
}

// pack allocates a bit-packed array of t.rows elements at the given width
// and writes it through InitRange, one window of fill's values at a time.
func (t *Table) pack(name string, bits uint, opts Options, fill func(lo uint64, dst []uint64)) (*core.SmartArray, error) {
	if _, dup := t.byName[name]; dup {
		return nil, fmt.Errorf("colstore: duplicate column %q", name)
	}
	arr, err := core.Allocate(t.rt.Memory(), core.Config{
		Name:      name,
		Length:    t.rows,
		Bits:      bits,
		Placement: opts.Placement,
		Socket:    opts.Socket,
	})
	if err != nil {
		return nil, err
	}
	window := make([]uint64, min(t.rows, BuildWindow))
	for lo := uint64(0); lo < t.rows; lo += BuildWindow {
		dst := window[:min(t.rows-lo, BuildWindow)]
		fill(lo, dst)
		arr.InitRange(opts.Socket, lo, dst)
	}
	return arr, nil
}

// add indexes a built array and appends it as column name. Every table
// column carries a zone index: scans prune resolved chunks, and Reencode
// keeps the index fresh across representation changes for free.
func (t *Table) add(name string, arr *core.SmartArray) *Column {
	arr.BuildZoneIndex()
	col := &Column{Name: name, arr: arr}
	t.columns = append(t.columns, col)
	t.byName[name] = col
	return col
}

// ReencodeColumn migrates one column to the given representation in
// place (the representation lever the adaptivity engine pulls per
// column), returning the migration traffic. Safe under concurrent
// queries: readers finish on the representation snapshot they loaded.
func (t *Table) ReencodeColumn(name string, kind encoding.Kind, socket int) (uint64, error) {
	c, err := t.Column(name)
	if err != nil {
		return 0, err
	}
	return c.arr.Reencode(kind, socket)
}

// Column resolves a column by name.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	return c, nil
}

// CmpOp is a predicate comparison operator.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator.
func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// Cmp maps the operator to the bitpack fused-kernel predicate, for the
// scan and for callers that feed predicates to core's mask kernels.
func (op CmpOp) Cmp() bitpack.Cmp {
	switch op {
	case Eq:
		return bitpack.CmpEq
	case Ne:
		return bitpack.CmpNe
	case Lt:
		return bitpack.CmpLt
	case Le:
		return bitpack.CmpLe
	case Gt:
		return bitpack.CmpGt
	default:
		return bitpack.CmpGe
	}
}

// Pred is a column-versus-constant predicate; predicates in a query are
// conjunctive (AND).
type Pred struct {
	Column string
	Op     CmpOp
	Value  uint64
}

// Agg is an aggregate function.
type Agg int

// Aggregate functions.
const (
	Sum Agg = iota
	Count
	Min
	Max
)

// aggState folds values. count is the number of rows folded; min and max
// hold their identities (^0 and 0) until one is, so states merge without
// asking whether they saw a row.
type aggState struct {
	agg   Agg
	sum   uint64
	count uint64
	min   uint64
	max   uint64
}

func newAggState(a Agg) aggState { return aggState{agg: a, min: ^uint64(0)} }

func (s *aggState) merge(o aggState) {
	s.sum += o.sum
	s.count += o.count
	s.min = min(s.min, o.min)
	s.max = max(s.max, o.max)
}

func (s *aggState) result() uint64 {
	switch s.agg {
	case Sum:
		return s.sum
	case Count:
		return s.count
	case Min:
		if s.count == 0 {
			return 0
		}
		return s.min
	default:
		return s.max
	}
}

// orderPreds returns the predicate evaluation order for a conjunction:
// cheapest-most-selective first, scored as (observed selectivity from the
// column's access profile, neutral 1.0 when unobserved) times the modeled
// per-element mask cost of its representation. AND is commutative, so
// reordering never changes the result — only how early chunks go dead and
// short-circuit the remaining predicates. The sort is stable: with no
// telemetry every score ties and the caller's order stands.
func orderPreds(predCols []*Column, preds []Pred) ([]*Column, []Pred) {
	if len(preds) < 2 {
		return predCols, preds
	}
	idx := make([]int, len(preds))
	score := make([]float64, len(preds))
	for i := range preds {
		idx[i] = i
		sel := 1.0
		if s, ok := predCols[i].arr.ObservedSelectivity(); ok {
			sel = s
		}
		// The additive floor keeps a "perfectly selective so far" predicate
		// from looking free and starving cheaper columns of the lead.
		score[i] = (0.05 + sel) * perfmodel.CostEncodedMask(predCols[i].arr.EncodingStats())
	}
	sort.SliceStable(idx, func(a, b int) bool { return score[idx[a]] < score[idx[b]] })
	oc := make([]*Column, len(preds))
	op := make([]Pred, len(preds))
	for j, i := range idx {
		oc[j], op[j] = predCols[i], preds[i]
	}
	return oc, op
}

// Aggregate evaluates `SELECT agg(column) WHERE preds...` as one pass of
// the scan executor (scan.go), the same pass GroupBy and MultiScan run.
// Only COUNT(*) needs no scan: it comes from the schema. An
// unpredicated MIN/MAX is the zone walk's first wave, folded from one
// super zone's chunk bounds.
func (t *Table) Aggregate(agg Agg, column string, preds ...Pred) (uint64, error) {
	if len(preds) == 0 && agg == Count {
		if _, err := t.Column(column); err != nil {
			return 0, err
		}
		return t.rows, nil
	}
	res, err := t.scan(ScanQuery{Agg: agg, Column: column, Preds: preds})
	return res.Value, err
}

// GroupRow is one group of a GroupBy result.
type GroupRow struct {
	Key   uint64
	Value uint64
}

// denseKeyMaxBits bounds the slice-indexed GroupBy fast path: key columns
// at most this wide (domain <= 4096 values) get one aggState slot per
// possible key per worker instead of a hash map, and the per-worker state
// vectors merge once after the loop barrier — no map lookups in the scan,
// no mutex anywhere.
const denseKeyMaxBits = 12

// GroupBy evaluates `SELECT key, agg(column) GROUP BY key WHERE preds...`
// as a one-query pass, returning one row per distinct key value,
// sorted by key. Only the rows surviving the selection bitmap pay the
// key/target Gets; narrow key columns take the dense slice-indexed path,
// wide ones per-worker hash maps merged once after the loop.
func (t *Table) GroupBy(keyColumn string, agg Agg, column string, preds ...Pred) ([]GroupRow, error) {
	// Resolved here because an empty ScanQuery.Key selects the scalar form.
	if _, err := t.Column(keyColumn); err != nil {
		return nil, err
	}
	res, err := t.scan(ScanQuery{Agg: agg, Column: column, Key: keyColumn, Preds: preds})
	return res.Groups, err
}

// scan runs q as a one-state pass, accounting into the query profile of
// the runtime view the table runs through, if any.
func (t *Table) scan(q ScanQuery) (ScanResult, error) {
	st, err := t.newScanState(q)
	if err != nil {
		return ScanResult{}, err
	}
	return t.run(st), nil
}

func (t *Table) resolvePreds(preds []Pred) ([]*Column, error) {
	cols := make([]*Column, len(preds))
	for i, p := range preds {
		c, err := t.Column(p.Column)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// Migrate restructures every column to a new placement (the adaptivity
// lever applied table-wide).
func (t *Table) Migrate(p memsim.Placement, socket int) error {
	for _, c := range t.columns {
		if _, err := c.arr.Migrate(p, socket); err != nil {
			return err
		}
	}
	return nil
}
