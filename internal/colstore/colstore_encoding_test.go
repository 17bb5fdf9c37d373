package colstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
)

// pruningRows sizes the fixtures queriesMatchScalar runs on: five super
// zones and a ragged last chunk, so plan-time pruning has whole runs to
// drop and boundaries of every kind to get wrong.
const pruningRows = 5*superRows + 37

// addPruningColumns gives the fixture the two columns whose zone maps
// prune at the super-zone level: id, the row number, and cluster, whose
// value 0 occupies one 1024-row plateau in every 8192 rows — survivors of
// "cluster = 0" are disjoint runs, one in every other super zone. Three
// more are MIN/MAX targets for the zone walk: rev, id reversed; flat, one
// constant; and peak, whose minimum 0 and maximum 5000 each recur in
// several super zones, on both sides of super-zone boundaries and (5000)
// in the ragged last chunk, with values one and two steps inside them
// placed so that "peak != 0" and "peak != 5000" leave a super zone whose
// bound beats the answer so far by exactly one.
func (f *fixture) addPruningColumns(t *testing.T) {
	t.Helper()
	rows := f.table.Rows()
	f.id, f.cluster = make([]uint64, rows), make([]uint64, rows)
	f.rev, f.flat, f.peak = make([]uint64, rows), make([]uint64, rows), make([]uint64, rows)
	for i := range f.id {
		f.id[i] = uint64(i)
		f.cluster[i] = uint64(i) / 1024 % 8
		f.rev[i] = rows - 1 - uint64(i)
		f.flat[i] = 7
		f.peak[i] = 3 + uint64(i)*7919%1000
	}
	for _, row := range []uint64{superRows - 1, superRows, 3*superRows + 5, rows - 1} {
		f.peak[row] = 5000
	}
	for _, row := range []uint64{0, 2*superRows - 1, 2 * superRows, 4*superRows + 100} {
		f.peak[row] = 0
	}
	f.peak[70], f.peak[3*superRows+9] = 2, 1
	f.peak[3*superRows+6], f.peak[2*superRows+7] = 4998, 4999
	for name, vals := range map[string][]uint64{
		"id": f.id, "cluster": f.cluster, "rev": f.rev, "flat": f.flat, "peak": f.peak,
	} {
		if _, err := f.table.AddColumn(name, vals, Options{Placement: memsim.Interleaved}); err != nil {
			t.Fatal(err)
		}
	}
}

// idWindow is the conjunction lo <= id < hi.
func idWindow(lo, hi uint64) []Pred {
	return []Pred{{Column: "id", Op: Ge, Value: lo}, {Column: "id", Op: Lt, Value: hi}}
}

// scalarResult answers q through the per-row oracles.
func scalarResult(t *testing.T, tbl *Table, q ScanQuery) ScanResult {
	t.Helper()
	if q.Key == "" {
		v, err := tbl.aggregateScalar(q.Agg, q.Column, q.Preds...)
		if err != nil {
			t.Fatalf("aggregateScalar: %v", err)
		}
		return ScanResult{Value: v}
	}
	groups, err := tbl.groupByScalar(q.Key, q.Agg, q.Column, q.Preds...)
	if err != nil {
		t.Fatalf("groupByScalar: %v", err)
	}
	return ScanResult{Groups: groups}
}

// queriesMatchScalar pins the one scan executor against the per-row
// scalar references on the fixture's current column representations
// (which must include addPruningColumns'): every aggregate × {0, 1, 2
// predicates} × {scalar, dense GroupBy, wide GroupBy}, then the plans
// plan-time pruning cuts down to a few batches or to none, with one
// aggregate each where a full per-row oracle pass per aggregate would only
// repeat itself. The shapes that once had paths of their own — COUNT(*),
// single-predicate COUNT, zone-root MIN/MAX, unpredicated SUM — are rows
// of this table like any other. MIN and MAX then run over every target
// shape the zone walk orders differently. It then runs selective plans as
// profiled passes, whose chunk accounting must add up.
func queriesMatchScalar(t *testing.T, f *fixture, label string) {
	t.Helper()
	rows := f.table.Rows()
	type planShape struct {
		preds []Pred
		aggs  []Agg
	}
	every := []Agg{Sum, Count, Min, Max}
	plans := []planShape{
		{nil, every},
		{[]Pred{{Column: "qty", Op: Gt, Value: 500}}, every},
		{[]Pred{{Column: "qty", Op: Le, Value: 700}, {Column: "region", Op: Ne, Value: 2}}, every},
		{[]Pred{{Column: "region", Op: Eq, Value: 3}}, every},
		{idWindow(128, 192), []Agg{Sum}},                            // one chunk
		{idWindow(superRows+64, superRows+64+65*64), []Agg{Max}},    // 65 chunks, into the next super zone
		{idWindow(superRows-6, superRows+4), []Agg{Count}},          // straddles a super-zone boundary
		{idWindow(rows-3, rows+100), []Agg{Min}},                    // the ragged last chunk
		{idWindow(rows+10, rows+20), every},                         // past the table: every run dead, no loop
		{[]Pred{{Column: "cluster", Op: Eq, Value: 0}}, []Agg{Sum}}, // many disjoint runs
		{[]Pred{{Column: "qty", Op: Gt, Value: 500}, {Column: "cluster", Op: Eq, Value: 0}, {Column: "id", Op: Ge, Value: 3 * superRows}}, []Agg{Max}},
	}
	// region is 3 bits wide (dense slice-indexed groups), price 16 (past
	// denseKeyMaxBits: per-worker hash maps).
	groupings := []struct{ key, target string }{{"region", "price"}, {"price", "qty"}}
	for _, pl := range plans {
		ps := pl.preds
		for _, agg := range pl.aggs {
			got, err := f.table.Aggregate(agg, "price", ps...)
			if err != nil {
				t.Fatalf("%s: Aggregate: %v", label, err)
			}
			want, err := f.table.aggregateScalar(agg, "price", ps...)
			if err != nil {
				t.Fatalf("%s: aggregateScalar: %v", label, err)
			}
			if got != want {
				t.Errorf("%s: agg %v preds %v = %d, want %d", label, agg, ps, got, want)
			}
			for _, g := range groupings {
				got, err := f.table.GroupBy(g.key, agg, g.target, ps...)
				if err != nil {
					t.Fatalf("%s: GroupBy: %v", label, err)
				}
				want, err := f.table.groupByScalar(g.key, agg, g.target, ps...)
				if err != nil {
					t.Fatalf("%s: groupByScalar: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: GroupBy %s agg %v preds %v = %+v, want %+v", label, g.key, agg, ps, got, want)
				}
			}
		}
	}

	// MIN and MAX, which the zone walk answers super zone by super zone,
	// best bound first, stopping early: over a monotone, a reversed, a
	// uniform, a constant and a tied target, with the extreme in the first
	// chunk, the last full chunk, the ragged tail, either side of a
	// super-zone boundary or in no selected row, and under predicates on
	// the target itself, which clamp its bounds. Each is profiled: the
	// super zones the walk never visits must still be accounted for.
	for name, vals := range map[string][]uint64{
		"id": f.id, "rev": f.rev, "price": f.price, "flat": f.flat, "peak": f.peak,
	} {
		v := vals[superRows+100]
		for _, ps := range [][]Pred{
			nil,
			idWindow(0, 64),
			idWindow(rows-37-64, rows-37),
			idWindow(rows-37, rows),
			idWindow(2*superRows-64, 2*superRows+64),
			{{Column: "qty", Op: Gt, Value: 500}, {Column: "qty", Op: Lt, Value: 501}}, // no row, nothing pruned
			{{Column: "qty", Op: Le, Value: 300}, {Column: "region", Op: Lt, Value: 3}},
			{{Column: "qty", Op: Ge, Value: 998}},
			{{Column: name, Op: Le, Value: v}},
			{{Column: name, Op: Lt, Value: v}},
			{{Column: name, Op: Ge, Value: v}},
			{{Column: name, Op: Gt, Value: v}},
			{{Column: name, Op: Eq, Value: v}},
			{{Column: name, Op: Ne, Value: 0}},
			{{Column: name, Op: Ne, Value: 5000}},
			{{Column: name, Op: Lt, Value: 0}},
			{{Column: name, Op: Gt, Value: ^uint64(0)}},
			{{Column: name, Op: Le, Value: v}, {Column: "qty", Op: Gt, Value: 500}},
		} {
			for _, agg := range []Agg{Min, Max} {
				prof := obs.NewQueryProfileAt(1, time.Now())
				got, err := f.table.WithRuntime(f.table.rt.WithProfile(prof)).Aggregate(agg, name, ps...)
				if err != nil {
					t.Fatalf("%s: Aggregate: %v", label, err)
				}
				if want := scalarResult(t, f.table, ScanQuery{Agg: agg, Column: name, Preds: ps}); got != want.Value {
					t.Errorf("%s: %v(%s) preds %v = %d, want %d", label, agg, name, ps, got, want.Value)
				}
				for _, c := range prof.Columns {
					if c.ChunksScanned+c.ChunksPruned != c.Chunks {
						t.Errorf("%s: %v(%s) preds %v column %s (%s): scanned %d + pruned %d != chunks %d",
							label, agg, name, ps, c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks)
					}
				}
			}
		}
	}

	// Selective plans, scalar and grouped (dense and wide keys), as
	// profiled passes: most of the table is in no live run, or all of it,
	// and the per-column chunk accounting must still add up.
	for i, q := range []ScanQuery{
		{Agg: Sum, Column: "price", Preds: idWindow(128, 192)},
		{Agg: Max, Column: "qty", Key: "region", Preds: []Pred{{Column: "cluster", Op: Eq, Value: 0}}},
		{Agg: Count, Column: "qty", Key: "price", Preds: idWindow(superRows-6, superRows+4)},
		{Agg: Min, Column: "price", Preds: idWindow(rows+10, rows+20)},
		{Agg: Sum, Column: "price", Key: "region", Preds: idWindow(rows+10, rows+20)},
	} {
		prof := obs.NewQueryProfileAt(uint64(i), time.Now())
		got, err := f.table.WithRuntime(f.table.rt.WithProfile(prof)).scan(q)
		if err != nil {
			t.Fatalf("%s: scan: %v", label, err)
		}
		if want := scalarResult(t, f.table, q); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: profiled query %d = %+v, want %+v", label, i, got, want)
		}
		for _, c := range prof.Columns {
			if c.ChunksScanned+c.ChunksPruned != c.Chunks {
				t.Errorf("%s: profiled query %d column %s (%s): scanned %d + pruned %d != chunks %d",
					label, i, c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks)
			}
		}
	}
}

// TestQueriesOnEveryEncoding re-encodes every column through every codec,
// with and without a zone index, interleaved and replicated, and pins the
// whole query surface against the per-row references — the chunk-codec
// dispatch, the zone shortcuts and the per-socket codec binding must all
// be invisible to results. A replicated table is also read row by row
// from each socket, so each replica's own codec is checked against the
// column's source values.
func TestQueriesOnEveryEncoding(t *testing.T) {
	for _, kind := range encoding.Kinds {
		for _, zones := range []bool{true, false} {
			for _, placement := range []memsim.Placement{memsim.Interleaved, memsim.Replicated} {
				f := newFixture(t, pruningRows, memsim.Interleaved)
				f.addPruningColumns(t)
				for _, name := range f.table.Columns() {
					c, _ := f.table.Column(name)
					if !zones {
						// A write drops the index AddColumn built (rewriting
						// row 0's own value keeps the content), and Reencode
						// only rebuilds an index that exists.
						c.Array().Init(0, 0, c.Array().GetFrom(0, 0))
					}
					if _, err := f.table.ReencodeColumn(name, kind, 0); err != nil {
						t.Fatalf("reencode %q to %v: %v", name, kind, err)
					}
					if got := c.Array().EncodingKind(); got != kind {
						t.Fatalf("column %q encoding = %v, want %v", name, got, kind)
					}
				}
				if err := f.table.Migrate(placement, 0); err != nil {
					t.Fatalf("migrate to %v: %v", placement, err)
				}
				label := fmt.Sprintf("%v zones=%v %v", kind, zones, placement)
				for _, name := range f.table.Columns() {
					c, _ := f.table.Column(name)
					if got := c.Array().ZoneIndex() != nil; got != zones {
						t.Fatalf("%s: column %q zone index present = %v, want %v", label, name, got, zones)
					}
				}
				if placement == memsim.Replicated {
					f.readEverySocket(t, label)
				}
				queriesMatchScalar(t, f, label)
			}
		}
	}
}

// readEverySocket reads every column row by row from each socket and
// compares it with the values the column was built from.
func (f *fixture) readEverySocket(t *testing.T, label string) {
	t.Helper()
	for name, want := range map[string][]uint64{
		"qty": f.qty, "price": f.price, "region": f.region, "id": f.id, "cluster": f.cluster,
		"rev": f.rev, "flat": f.flat, "peak": f.peak,
	} {
		c, _ := f.table.Column(name)
		for s := 0; s < f.table.rt.Spec().Sockets; s++ {
			v := c.Array().View(s)
			for row, w := range want {
				if got := v.Get(uint64(row)); got != w {
					t.Fatalf("%s: column %q row %d from socket %d = %d, want %d", label, name, row, s, got, w)
				}
			}
		}
	}
}

// TestQueriesOnMixedEncodings leaves every column in a different
// representation — predicate columns and target columns may disagree and
// the pipeline must still compose their kernels.
func TestQueriesOnMixedEncodings(t *testing.T) {
	f := newFixture(t, pruningRows, memsim.Interleaved)
	f.addPruningColumns(t)
	for name, kind := range map[string]encoding.Kind{
		"qty": encoding.Delta, "price": encoding.FoR, "region": encoding.RLE,
	} {
		if _, err := f.table.ReencodeColumn(name, kind, 0); err != nil {
			t.Fatalf("reencode %q to %v: %v", name, kind, err)
		}
	}
	queriesMatchScalar(t, f, "mixed")
}

// TestAutoEncode checks that AddColumn's AutoEncode picks a compact
// representation for structured columns, leaves incompressible ones
// native, and keeps queries exact either way.
func TestAutoEncode(t *testing.T) {
	f := newFixture(t, 8_192, memsim.Interleaved)
	const rows = 8_192
	clustered := make([]uint64, rows)
	sorted := make([]uint64, rows)
	for i := range clustered {
		clustered[i] = uint64(i) / 512 // long runs
		sorted[i] = uint64(i)          // strictly increasing
	}
	opts := Options{Placement: memsim.Interleaved, AutoEncode: true}
	cc, err := f.table.AddColumn("clustered", clustered, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kind := cc.Array().EncodingKind(); kind != encoding.RLE {
		t.Errorf("clustered column encoded as %v, want rle", kind)
	}
	sc, err := f.table.AddColumn("sorted", sorted, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kind := sc.Array().EncodingKind(); kind == encoding.BitPacked || kind == encoding.Plain {
		t.Errorf("sorted column stayed %v, want a compact codec", kind)
	}

	var wantSum uint64
	for i, v := range clustered {
		if sorted[i] >= rows/2 {
			wantSum += v
		}
	}
	got, err := f.table.Aggregate(Sum, "clustered", Pred{Column: "sorted", Op: Ge, Value: rows / 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantSum {
		t.Errorf("auto-encoded aggregate = %d, want %d", got, wantSum)
	}

	// The compact representations must actually be smaller than packed.
	if cc.Array().CompressedBytes() >= rows*2 {
		t.Errorf("clustered payload %d bytes did not shrink", cc.Array().CompressedBytes())
	}
}
