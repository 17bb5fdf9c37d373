package colstore

import (
	"fmt"
	"reflect"
	"testing"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// queriesMatchScalar pins the one scan executor against the per-row
// scalar references on the fixture's current column representations:
// every aggregate × {0, 1, 2 predicates} × {scalar, dense GroupBy, wide
// GroupBy}. The shapes that once had paths of their own — COUNT(*),
// single-predicate COUNT, zone-root MIN/MAX, unpredicated SUM — are rows
// of this table like any other.
func queriesMatchScalar(t *testing.T, f *fixture, label string) {
	t.Helper()
	preds := [][]Pred{
		nil,
		{{Column: "qty", Op: Gt, Value: 500}},
		{{Column: "qty", Op: Le, Value: 700}, {Column: "region", Op: Ne, Value: 2}},
		{{Column: "region", Op: Eq, Value: 3}},
	}
	// region is 3 bits wide (dense slice-indexed groups), price 16 (past
	// denseKeyMaxBits: per-worker hash maps).
	groupings := []struct{ key, target string }{{"region", "price"}, {"price", "qty"}}
	for _, ps := range preds {
		for _, agg := range []Agg{Sum, Count, Min, Max} {
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
}

// TestQueriesOnEveryEncoding re-encodes every column through every codec,
// with and without a zone index, and pins the whole query surface against
// the per-row references — the chunk-codec dispatch and the zone
// shortcuts must both be invisible to results.
func TestQueriesOnEveryEncoding(t *testing.T) {
	for _, kind := range encoding.Kinds {
		for _, zones := range []bool{true, false} {
			f := newFixture(t, 6_000, memsim.Interleaved)
			for _, name := range f.table.Columns() {
				c, _ := f.table.Column(name)
				if !zones {
					// A write drops the index AddColumn built (rewriting row
					// 0's own value keeps the content), and Reencode only
					// rebuilds an index that exists.
					c.Array().Init(0, 0, c.Array().GetFrom(0, 0))
				}
				if _, err := f.table.ReencodeColumn(name, kind, 0); err != nil {
					t.Fatalf("reencode %q to %v: %v", name, kind, err)
				}
				if got := c.Array().EncodingKind(); got != kind {
					t.Fatalf("column %q encoding = %v, want %v", name, got, kind)
				}
				if got := c.Array().ZoneIndex() != nil; got != zones {
					t.Fatalf("column %q zone index present = %v, want %v", name, got, zones)
				}
			}
			queriesMatchScalar(t, f, fmt.Sprintf("%v zones=%v", kind, zones))
		}
	}
}

// TestQueriesOnMixedEncodings leaves every column in a different
// representation — predicate columns and target columns may disagree and
// the pipeline must still compose their kernels.
func TestQueriesOnMixedEncodings(t *testing.T) {
	f := newFixture(t, 6_000, memsim.Interleaved)
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
