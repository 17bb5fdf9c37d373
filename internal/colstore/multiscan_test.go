package colstore

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// multiScanQueries is the mixed batch the MultiScan tests drive: every
// aggregate, grouped and scalar, duplicate plans, multi-predicate
// conjunctions, and a zero-predicate fold.
func multiScanQueries() []ScanQuery {
	return []ScanQuery{
		{Agg: Sum, Column: "price", Preds: []Pred{{Column: "region", Op: Lt, Value: 4}}},
		{Agg: Count, Column: "qty", Preds: []Pred{{Column: "qty", Op: Ge, Value: 500}}},
		{Agg: Min, Column: "price", Preds: []Pred{{Column: "region", Op: Eq, Value: 2}}},
		{Agg: Max, Column: "price", Preds: []Pred{{Column: "region", Op: Ne, Value: 7}}},
		{Agg: Sum, Column: "price", Preds: []Pred{{Column: "region", Op: Lt, Value: 4}}},
		{Agg: Sum, Column: "qty"},
		{Agg: Sum, Column: "price", Preds: []Pred{
			{Column: "qty", Op: Ge, Value: 100}, {Column: "qty", Op: Le, Value: 800}}},
		{Agg: Sum, Column: "price", Key: "region", Preds: []Pred{{Column: "qty", Op: Ge, Value: 500}}},
		{Agg: Count, Column: "qty", Key: "region"},
		{Agg: Max, Column: "qty", Key: "region", Preds: []Pred{{Column: "region", Op: Le, Value: 5}}},
	}
}

// checkAgainstIndependent asserts every MultiScan answer is bit-identical
// to the query's independent Aggregate/GroupBy execution.
func checkAgainstIndependent(t *testing.T, tbl *Table, queries []ScanQuery, results []ScanResult) {
	t.Helper()
	for i, q := range queries {
		if q.Key == "" {
			want, err := tbl.Aggregate(q.Agg, q.Column, q.Preds...)
			if err != nil {
				t.Fatalf("query %d: independent Aggregate: %v", i, err)
			}
			if results[i].Value != want {
				t.Errorf("query %d: shared %d, independent %d", i, results[i].Value, want)
			}
			continue
		}
		want, err := tbl.GroupBy(q.Key, q.Agg, q.Column, q.Preds...)
		if err != nil {
			t.Fatalf("query %d: independent GroupBy: %v", i, err)
		}
		if len(results[i].Groups) != len(want) {
			t.Fatalf("query %d: %d groups, independent %d", i, len(results[i].Groups), len(want))
		}
		for g := range want {
			if results[i].Groups[g] != want[g] {
				t.Errorf("query %d group %d: shared %+v, independent %+v", i, g, results[i].Groups[g], want[g])
			}
		}
	}
}

func TestMultiScanMatchesIndependent(t *testing.T) {
	f := newFixture(t, 20000, memsim.Interleaved)
	queries := multiScanQueries()
	results, err := f.table.MultiScan(queries)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstIndependent(t, f.table, queries, results)
}

// TestMultiScanAcrossCodecs re-encodes the predicate and payload columns
// through every representation and asserts the cooperative pass stays
// bit-identical to independent execution under each codec.
func TestMultiScanAcrossCodecs(t *testing.T) {
	queries := multiScanQueries()
	for _, kind := range encoding.Kinds {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			f := newFixture(t, 8000, memsim.Interleaved)
			for _, name := range []string{"qty", "price", "region"} {
				if _, err := f.table.ReencodeColumn(name, kind, 0); err != nil {
					t.Fatalf("reencode %s to %v: %v", name, kind, err)
				}
			}
			results, err := f.table.MultiScan(queries)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstIndependent(t, f.table, queries, results)
		})
	}
}

// TestMultiScanUnderReencode races cooperative passes against live
// re-encoding of every column — the serving-path invariant that a codec
// swap mid-pass never changes answers (values are preserved; each fold
// loads a consistent representation per call). Run with -race.
func TestMultiScanUnderReencode(t *testing.T) {
	f := newFixture(t, 6000, memsim.Interleaved)
	queries := multiScanQueries()
	want, err := f.table.MultiScan(queries)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		kinds := []encoding.Kind{encoding.Dict, encoding.RLE, encoding.BitPacked, encoding.FoR}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{"qty", "region"} {
				// Not every kind fits every column; failures just leave the
				// previous representation in place, which is fine here.
				_, _ = f.table.ReencodeColumn(name, kinds[i%len(kinds)], 0)
			}
		}
	}()

	for pass := 0; pass < 8; pass++ {
		got, err := f.table.MultiScan(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Value != want[i].Value || len(got[i].Groups) != len(want[i].Groups) {
				t.Fatalf("pass %d query %d diverged under reencode: got %+v, want %+v",
					pass, i, got[i], want[i])
			}
			for g := range want[i].Groups {
				if got[i].Groups[g] != want[i].Groups[g] {
					t.Fatalf("pass %d query %d group %d diverged under reencode", pass, i, g)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestMultiScanErrors(t *testing.T) {
	f := newFixture(t, 1000, memsim.Interleaved)
	if _, err := f.table.MultiScan([]ScanQuery{{Agg: Sum, Column: "nope"}}); err == nil {
		t.Error("unknown target column should error")
	}
	if _, err := f.table.MultiScan([]ScanQuery{
		{Agg: Sum, Column: "qty", Preds: []Pred{{Column: "nope", Op: Eq, Value: 1}}}}); err == nil {
		t.Error("unknown predicate column should error")
	}
	if _, err := f.table.MultiScan([]ScanQuery{{Agg: Sum, Column: "qty", Key: "nope"}}); err == nil {
		t.Error("unknown key column should error")
	}
}

// TestCanonicalPredsSignature pins the signature bytes the pass groups
// states by — sorted "column\x00op\x00value" terms joined by \x01 — and
// the positions to a stable sort, duplicates included.
func TestCanonicalPredsSignature(t *testing.T) {
	cases := [][]Pred{
		nil,
		{{Column: "id", Op: Ge, Value: 10}},
		{{Column: "id", Op: Lt, Value: 4096}, {Column: "id", Op: Ge, Value: 10}},
		{{Column: "qty", Op: Le, Value: ^uint64(0)}, {Column: "amount", Op: Eq, Value: 0}, {Column: "qty", Op: Le, Value: 7}},
		{{Column: "a", Op: Ne, Value: 1}, {Column: "a", Op: Ne, Value: 1}, {Column: "", Op: Gt, Value: 3}},
		{{Column: "id", Op: Lt, Value: 100}, {Column: "id", Op: Lt, Value: 99}, {Column: "id", Op: Lt, Value: 1000}},
	}
	for _, preds := range cases {
		keys := make([]string, len(preds))
		idx := make([]int, len(preds))
		for i, p := range preds {
			keys[i] = fmt.Sprintf("%s\x00%d\x00%d", p.Column, p.Op, p.Value)
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		wantPos := make([]int, len(preds))
		sorted := make([]string, len(preds))
		for c, i := range idx {
			wantPos[i] = c
			sorted[c] = keys[i]
		}
		wantSig := strings.Join(sorted, "\x01")

		pos, sig := canonicalPreds(preds)
		if sig != wantSig || !reflect.DeepEqual(pos, wantPos) {
			t.Errorf("canonicalPreds(%v) = %v %q, want %v %q", preds, pos, sig, wantPos, wantSig)
		}
	}
}
