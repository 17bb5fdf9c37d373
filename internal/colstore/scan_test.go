package colstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
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

// oracleResults answers every query through the per-row oracles.
func oracleResults(t *testing.T, tbl *Table, queries []ScanQuery) []ScanResult {
	t.Helper()
	want := make([]ScanResult, len(queries))
	for i, q := range queries {
		want[i] = scalarResult(t, tbl, q)
	}
	return want
}

// checkResults asserts every MultiScan answer equals the oracle's.
func checkResults(t *testing.T, label string, got, want []ScanResult) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s query %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMultiScanMatchesIndependent pins every MultiScan answer to the
// query's per-row oracle answer.
func TestMultiScanMatchesIndependent(t *testing.T) {
	f := newFixture(t, 20000, memsim.Interleaved)
	queries := multiScanQueries()
	results, err := f.table.MultiScan(queries)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, "interleaved", results, oracleResults(t, f.table, queries))
}

// TestMultiScanAcrossCodecs re-encodes the predicate and payload columns
// through every representation and asserts every pass still matches the
// per-row oracle under each codec.
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
			checkResults(t, fmt.Sprint(kind), results, oracleResults(t, f.table, queries))
		})
	}
}

// TestMultiScanUnderReencode races passes against live re-encoding of
// every column — the serving-path invariant that a codec swap mid-pass
// never changes answers (values are preserved; each fold loads a
// consistent representation per call). Run with -race.
func TestMultiScanUnderReencode(t *testing.T) {
	f := newFixture(t, 6000, memsim.Interleaved)
	queries := multiScanQueries()
	want := oracleResults(t, f.table, queries)

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
		checkResults(t, fmt.Sprintf("pass %d under reencode:", pass), got, want)
		// The same queries inside a query profile: every worker writes its
		// own accounting row while the columns swap representations, and
		// the rows must fold to whole columns.
		for i, q := range queries {
			prof := obs.NewQueryProfileAt(uint64(i), time.Now())
			got, err := f.table.WithRuntime(f.table.rt.WithProfile(prof)).scan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("profiled pass %d query %d under reencode: got %+v, want %+v", pass, i, got, want[i])
			}
			for _, c := range prof.Columns {
				if c.ChunksScanned+c.ChunksPruned != c.Chunks {
					t.Errorf("pass %d query %d column %s (%s): scanned %d + pruned %d != chunks %d",
						pass, i, c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks)
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

// TestProfileCountsFollowTheirColumn pins that a predicate's chunk counts
// are reported under its own column whatever position orderPreds
// evaluates it in. An id window, which zone pruning cuts down to a few
// chunks, rides beside a qty predicate that scans every chunk it reaches.
// Bit-packed id is the pricier mask build (qty evaluates first), plain id
// the cheaper (id first), and each runs in both caller orders. The
// profile must list the predicates in canonical order, id before qty, and
// neither id entry may scan more than the window's chunks plus two.
func TestProfileCountsFollowTheirColumn(t *testing.T) {
	f := newFixture(t, pruningRows, memsim.Interleaved)
	f.addPruningColumns(t)
	lo, hi := uint64(superRows+100), uint64(superRows+740)
	window := idWindow(lo, hi)
	qty := Pred{Column: "qty", Op: Gt, Value: 500}
	maxIDScanned := (hi-lo+63)/64 + 2
	idFirst := map[bool]bool{}
	for _, kind := range []encoding.Kind{encoding.BitPacked, encoding.Plain} {
		if _, err := f.table.ReencodeColumn("id", kind, 0); err != nil {
			t.Fatal(err)
		}
		for _, preds := range [][]Pred{{qty, window[0], window[1]}, {window[0], window[1], qty}} {
			cols, err := f.table.resolvePreds(preds)
			if err != nil {
				t.Fatal(err)
			}
			_, evalOrder := orderPreds(cols, preds)
			idFirst[evalOrder[0].Column == "id"] = true

			prof := obs.NewQueryProfileAt(1, time.Now())
			got, err := f.table.WithRuntime(f.table.rt.WithProfile(prof)).Aggregate(Sum, "price", preds...)
			if err != nil {
				t.Fatal(err)
			}
			if want := scalarResult(t, f.table, ScanQuery{Agg: Sum, Column: "price", Preds: preds}); got != want.Value {
				t.Errorf("%v id, evaluated %v: sum %d, want %d", kind, evalOrder, got, want.Value)
			}
			var listed []string
			for _, c := range prof.Columns {
				if c.ChunksScanned+c.ChunksPruned != c.Chunks {
					t.Errorf("%v id, evaluated %v: column %s (%s): scanned %d + pruned %d != chunks %d",
						kind, evalOrder, c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks)
				}
				if c.Role != obs.RolePredicate {
					continue
				}
				listed = append(listed, c.Column)
				if c.Column == "id" && c.ChunksScanned > maxIDScanned {
					t.Errorf("%v id, evaluated %v: an id predicate scanned %d chunks, want at most %d",
						kind, evalOrder, c.ChunksScanned, maxIDScanned)
				}
			}
			if want := []string{"id", "id", "qty"}; !reflect.DeepEqual(listed, want) {
				t.Errorf("%v id, evaluated %v: profile lists predicates %v, want %v", kind, evalOrder, listed, want)
			}
		}
	}
	if !idFirst[true] || !idFirst[false] {
		t.Fatalf("evaluation orders seen (id first: %v), want id both first and after qty", idFirst)
	}
}

// TestWorkerRecordsFillCacheLines: the per-worker records a batch writes
// (the pass's workerRecord, the table's workerScratch) are whole cache
// lines, so neighbouring workers never write into one line.
func TestWorkerRecordsFillCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"workerRecord":  unsafe.Sizeof(workerRecord{}),
		"workerScratch": unsafe.Sizeof(workerScratch{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a whole number of 64-byte cache lines", name, size)
		}
	}
}
