package colstore

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// pruningFixture builds a table whose predicate columns are clustered
// (sorted plateaus with occasional noise) so the zone index resolves a
// real share of chunks, plus plain-slice shadows for the scalar paths. Its
// runtime carries an array registry, so every pass folds its predicates'
// observed selectivity into the columns' access profiles.
type pruningFixture struct {
	table *Table
	key   []uint64
	val   []uint64
	band  []uint64
	tag   []uint64
}

func newPruningFixture(t *testing.T, rows uint64) *pruningFixture {
	t.Helper()
	rt := rts.New(machine.X52Small())
	rt.SetArrayProfiling(obs.NewArrayRegistry())
	table, err := NewTable(rt, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(table.Free)
	f := &pruningFixture{table: table}
	f.key = make([]uint64, rows)
	f.val = make([]uint64, rows)
	f.band = make([]uint64, rows)
	f.tag = make([]uint64, rows)
	for i := uint64(0); i < rows; i++ {
		f.key[i] = i / 64 % 7 // dense GroupBy path, plateau-aligned
		f.val[i] = i % 1021
		f.band[i] = i / 128 % 256 // long sorted plateaus -> zones resolve
		if i%113 == 0 {
			x := i*2654435761 + 99
			f.band[i] = (x ^ x>>11) % 256 // noise: some chunks stay mixed
		}
		f.tag[i] = i * 251 % 512 // scattered -> zones resolve little
	}
	opts := Options{Placement: memsim.Interleaved}
	for _, c := range []struct {
		name string
		vals []uint64
	}{{"key", f.key}, {"val", f.val}, {"band", f.band}, {"tag", f.tag}} {
		if _, err := table.AddColumn(c.name, c.vals, opts); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// pruningQueries is the predicate mix the property tests sweep: zero, one
// and two conjunctive predicates, with thresholds that produce all-match,
// no-match and mixed zone verdicts on the clustered column.
func pruningQueries() [][]Pred {
	return [][]Pred{
		nil,
		{{Column: "band", Op: Lt, Value: 40}},
		{{Column: "band", Op: Ge, Value: 255}},
		{{Column: "band", Op: Le, Value: 999}},  // all rows match
		{{Column: "band", Op: Gt, Value: 1000}}, // no rows match
		{{Column: "band", Op: Eq, Value: 17}},
		{{Column: "band", Op: Lt, Value: 64}, {Column: "tag", Op: Ne, Value: 100}},
		{{Column: "tag", Op: Lt, Value: 256}, {Column: "band", Op: Ge, Value: 128}},
	}
}

// TestPrunedAggregateMatchesScalar checks that the zone-pruned bitmap
// Aggregate stays bit-identical to the per-row scalar reference across
// every codec, before and after re-encoding the predicate and target
// columns.
func TestPrunedAggregateMatchesScalar(t *testing.T) {
	const rows = 4517 // ragged tail chunk, multiple super zones
	aggs := []Agg{Sum, Count, Min, Max}

	check := func(f *pruningFixture, stage string) {
		t.Helper()
		for _, agg := range aggs {
			for qi, preds := range pruningQueries() {
				got, err := f.table.Aggregate(agg, "val", preds...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := f.table.aggregateScalar(agg, "val", preds...)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: agg %v query %d: pruned %d, want %d", stage, agg, qi, got, want)
				}
			}
		}
	}

	for _, kind := range append([]encoding.Kind{encoding.BitPacked}, encoding.Kinds...) {
		f := newPruningFixture(t, rows)
		check(f, "before reencode "+kind.String())
		for _, col := range []string{"band", "tag", "val"} {
			if _, err := f.table.ReencodeColumn(col, kind, 0); err != nil {
				t.Fatalf("ReencodeColumn(%s, %v): %v", col, kind, err)
			}
		}
		check(f, "after reencode "+kind.String())
	}
}

// TestPrunedGroupByMatchesScalar is the GroupBy counterpart, and also
// exercises the shared per-worker mask scratch by running Aggregate and
// GroupBy back to back on the same table.
func TestPrunedGroupByMatchesScalar(t *testing.T) {
	const rows = 4517
	for _, kind := range append([]encoding.Kind{encoding.BitPacked}, encoding.Kinds...) {
		f := newPruningFixture(t, rows)
		for _, col := range []string{"band", "tag"} {
			if _, err := f.table.ReencodeColumn(col, kind, 0); err != nil {
				t.Fatal(err)
			}
		}
		for qi, preds := range pruningQueries() {
			// Aggregate first so GroupBy reuses (and must correctly
			// re-slice) the worker scratch left behind by the bitmap path.
			if _, err := f.table.Aggregate(Sum, "val", preds...); err != nil {
				t.Fatal(err)
			}
			got, err := f.table.GroupBy("key", Sum, "val", preds...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.table.groupByScalar("key", Sum, "val", preds...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v query %d: GroupBy %v, want %v", kind, qi, got, want)
			}
		}
	}
}

// TestZeroPredMinMaxUsesZoneBounds pins what the zone walk makes of an
// unpredicated Min/Max: the zone index root's value, the scalar fold's
// answer, folded from chunk bounds with no full chunk decoded — only the
// ragged last chunk, which has no bound of its own to the row, counts as
// scanned.
func TestZeroPredMinMaxUsesZoneBounds(t *testing.T) {
	// The last super zone is half full, its last chunk ragged.
	f := newPruningFixture(t, 3*superRows/2+7)
	c, err := f.table.Column("band")
	if err != nil {
		t.Fatal(err)
	}
	z := c.arr.ZoneIndex()
	if z == nil {
		t.Fatal("AddColumn did not build a zone index")
	}
	mn, mx := ^uint64(0), uint64(0)
	chunks := (c.arr.Length() + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	for s := uint64(0); s*encoding.ZoneFanout < chunks; s++ {
		smn, smx := z.SuperBounds(s)
		mn, mx = min(mn, smn), max(mx, smx)
	}
	for _, agg := range []Agg{Min, Max} {
		prof := obs.NewQueryProfileAt(1, time.Now())
		got, err := f.table.WithRuntime(f.table.rt.WithProfile(prof)).Aggregate(agg, "band")
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.table.aggregateScalar(agg, "band")
		if err != nil {
			t.Fatal(err)
		}
		root := map[Agg]uint64{Min: mn, Max: mx}[agg]
		if got != want || got != root {
			t.Fatalf("zero-pred %v = %d, want %d (zone root %d)", agg, got, want, root)
		}
		if len(prof.Columns) != 1 {
			t.Fatalf("zero-pred %v profiled %d columns, want the target", agg, len(prof.Columns))
		}
		if cp := prof.Columns[0]; cp.ChunksScanned > 1 || cp.ChunksScanned+cp.ChunksPruned != cp.Chunks {
			t.Errorf("zero-pred %v: scanned %d + pruned %d of %d chunks, want at most the ragged one scanned",
				agg, cp.ChunksScanned, cp.ChunksPruned, cp.Chunks)
		}
	}
}

// TestZoneWalkWaves pins the zone walk's wave schedule on a table of 17
// super zones, the last one ragged. MAX(id) stops after one wave of one
// super zone; a MIN(id) that no row satisfies, under predicates no zone
// can prune, visits them all in waves of 1, 2, 4, 8 and the last 2 — five
// loops, within ceil(log2(17))+1 — and a constant target's keys all tie,
// so its walk is one loop over everything. Unvisited super zones are
// pruned for every column.
func TestZoneWalkWaves(t *testing.T) {
	const rows = 17*superRows - 100
	table, err := NewTable(rts.New(machine.X52Small()), rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(table.Free)
	id, noise, flat := make([]uint64, rows), make([]uint64, rows), make([]uint64, rows)
	for i := range id {
		id[i], noise[i], flat[i] = uint64(i), uint64(i)*7919%1000, 7
	}
	for name, vals := range map[string][]uint64{"id": id, "noise": noise, "flat": flat} {
		if _, err := table.AddColumn(name, vals, Options{Placement: memsim.Interleaved}); err != nil {
			t.Fatal(err)
		}
	}
	none := []Pred{{Column: "noise", Op: Gt, Value: 500}, {Column: "noise", Op: Lt, Value: 501}}
	for _, tc := range []struct {
		agg        Agg
		column     string
		preds      []Pred
		loops      uint64
		maxScanned uint64
	}{
		{Max, "id", []Pred{{Column: "noise", Op: Ge, Value: 500}}, 1, encoding.ZoneFanout},
		{Min, "id", none, 5, 17 * encoding.ZoneFanout},
		{Min, "flat", []Pred{{Column: "noise", Op: Lt, Value: 500}}, 1, 17 * encoding.ZoneFanout},
	} {
		prof := obs.NewQueryProfileAt(1, time.Now())
		got, err := table.WithRuntime(table.rt.WithProfile(prof)).Aggregate(tc.agg, tc.column, tc.preds...)
		if err != nil {
			t.Fatal(err)
		}
		prof.FinalizeAt("ok", 200, time.Now())
		if want, _ := table.aggregateScalar(tc.agg, tc.column, tc.preds...); got != want {
			t.Errorf("%v(%s) preds %v = %d, want %d", tc.agg, tc.column, tc.preds, got, want)
		}
		if prof.Loops != tc.loops {
			t.Errorf("%v(%s) preds %v ran %d loops, want %d", tc.agg, tc.column, tc.preds, prof.Loops, tc.loops)
		}
		for _, c := range prof.Columns {
			if c.ChunksScanned > tc.maxScanned || c.ChunksScanned+c.ChunksPruned != c.Chunks {
				t.Errorf("%v(%s) preds %v column %s (%s): scanned %d + pruned %d of %d chunks, want at most %d scanned",
					tc.agg, tc.column, tc.preds, c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks, tc.maxScanned)
			}
		}
	}
}

// TestZoneWalkUnderReencode races scalar MIN/MAX plans, whose zone walks
// take several wave loops, against live re-encoding of their target and
// predicate columns. A worker takes its column views on its first batch
// of the pass and reads them in every later wave, between which no loop
// pin is held: only the pass's own pin keeps a snapshot the re-encoder
// retired mapped until the walk ends. Without it a later wave reads an
// unmapped region and faults (on mapped payload, the non-race build).
func TestZoneWalkUnderReencode(t *testing.T) {
	const rows = 17*superRows - 100
	table, err := NewTable(rts.New(machine.X52Small()), rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(table.Free)
	// late is 0 and 2 in every chunk, so no zone decides "late = 1", and 1
	// in one row of super zone 9: MIN(id) finds it in the walk's fourth
	// wave, MAX(id) in its fourth from the top.
	id, late := make([]uint64, rows), make([]uint64, rows)
	for i := range id {
		id[i], late[i] = uint64(i), uint64(i%2)*2
	}
	late[9*superRows+77] = 1
	for name, vals := range map[string][]uint64{"id": id, "late": late} {
		if _, err := table.AddColumn(name, vals, Options{Placement: memsim.Interleaved}); err != nil {
			t.Fatal(err)
		}
	}
	one := []Pred{{Column: "late", Op: Eq, Value: 1}}
	none := []Pred{{Column: "late", Op: Gt, Value: 0}, {Column: "late", Op: Lt, Value: 2}, {Column: "late", Op: Ne, Value: 1}}
	plans := []ScanQuery{
		{Agg: Min, Column: "id", Preds: one},
		{Agg: Max, Column: "id", Preds: one},
		{Agg: Min, Column: "id", Preds: none},
	}
	want := oracleResults(t, table, plans)

	stop := make(chan struct{})
	var rounds atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		kinds := []encoding.Kind{encoding.FoR, encoding.Dict, encoding.Plain, encoding.BitPacked}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{"id", "late"} {
				// A kind that does not fit leaves the column as it was.
				_, _ = table.ReencodeColumn(name, kinds[i%len(kinds)], 0)
			}
			rounds.Add(1)
		}
	}()
	// At least 40 passes, and enough for the re-encoder to swap both
	// columns a few dozen times under them.
	for pass := 0; pass < 40 || rounds.Load() < 32; pass++ {
		for i, q := range plans {
			prof := obs.NewQueryProfileAt(uint64(i), time.Now())
			got, err := table.WithRuntime(table.rt.WithProfile(prof)).scan(q)
			if err != nil {
				t.Fatal(err)
			}
			prof.FinalizeAt("ok", 200, time.Now())
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("pass %d plan %d under reencode: got %+v, want %+v", pass, i, got, want[i])
			}
			if prof.Loops < 2 {
				t.Errorf("pass %d plan %d ran %d loops, want a walk of several waves", pass, i, prof.Loops)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestOrderPredsKeepsSemantics checks that selectivity-driven predicate
// reordering happens and never changes results: after telemetry has
// observed skewed selectivities, orderPreds leads a [tag, band] conjunction
// with the far more selective band, and the query still matches the
// scalar path and leaves the caller's predicate slice untouched.
func TestOrderPredsKeepsSemantics(t *testing.T) {
	f := newPruningFixture(t, 4096)
	// Warm telemetry with queries whose selectivities differ sharply so
	// orderPreds has something to act on.
	for i := 0; i < 5; i++ {
		if _, err := f.table.Aggregate(Count, "val",
			Pred{Column: "band", Op: Lt, Value: 8},
			Pred{Column: "tag", Op: Lt, Value: 500}); err != nil {
			t.Fatal(err)
		}
	}
	preds := []Pred{
		{Column: "tag", Op: Lt, Value: 500},
		{Column: "band", Op: Lt, Value: 8},
	}
	orig := append([]Pred(nil), preds...)
	cols, err := f.table.resolvePreds(orig)
	if err != nil {
		t.Fatal(err)
	}
	if _, order := orderPreds(cols, append([]Pred(nil), orig...)); order[0].Column != "band" {
		bandSel, _ := cols[1].arr.ObservedSelectivity()
		tagSel, _ := cols[0].arr.ObservedSelectivity()
		t.Fatalf("orderPreds kept %v first (observed selectivity band %.3f, tag %.3f)", order[0], bandSel, tagSel)
	}
	got, err := f.table.Aggregate(Count, "val", preds...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.table.aggregateScalar(Count, "val", orig...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reordered count %d, want %d", got, want)
	}
	if !reflect.DeepEqual(preds, orig) {
		t.Fatalf("Aggregate mutated caller predicates: %v != %v", preds, orig)
	}
}

// TestScanFoldsPredicateFeedback: a pass folds each predicate's observed
// selectivity into its column's access profile once, after the loop, from
// the scan's own per-worker rows — through a profiled runtime view and
// with no query profile alike. In evaluation order the first predicate
// sees every live row, the second only the rows the first let through,
// and the last one's hits are the COUNT.
func TestScanFoldsPredicateFeedback(t *testing.T) {
	f := newPruningFixture(t, 1<<14)
	reg := f.table.rt.Memory().ArrayRegistry()
	preds := []Pred{{Column: "tag", Op: Lt, Value: 300}, {Column: "band", Op: Lt, Value: 40}}
	for _, profiled := range []bool{true, false} {
		cols, err := f.table.resolvePreds(preds)
		if err != nil {
			t.Fatal(err)
		}
		// The order the pass will evaluate in: orderPreds reads the same
		// registry state the pass's own call does.
		order, _ := orderPreds(cols, append([]Pred(nil), preds...))
		snap := func() (p [2]obs.AccessProfile) {
			for i, c := range order {
				var ok bool
				if p[i], ok = reg.Profile(c.arr.TelemetryID()); !ok {
					t.Fatalf("column %s is not in the registry", c.Name)
				}
			}
			return p
		}
		before := snap()
		table := f.table
		if profiled {
			table = table.WithRuntime(table.rt.WithProfile(obs.NewQueryProfileAt(1, time.Now())))
		}
		count, err := table.Aggregate(Count, "val", preds...)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := f.table.aggregateScalar(Count, "val", preds...); count != want {
			t.Fatalf("profiled=%v: count %d, want %d", profiled, count, want)
		}
		after := snap()
		var evals, hits [2]uint64
		for i := range order {
			evals[i] = after[i].Access.PredEvals - before[i].Access.PredEvals
			hits[i] = after[i].Access.PredHits - before[i].Access.PredHits
			if after[i].Folds <= before[i].Folds {
				t.Errorf("profiled=%v: %s folds did not grow: %d -> %d", profiled, order[i].Name, before[i].Folds, after[i].Folds)
			}
		}
		if hits[1] != count {
			t.Errorf("profiled=%v: last predicate (%s) hits grew by %d, want the count %d", profiled, order[1].Name, hits[1], count)
		}
		if evals[1] != hits[0] {
			t.Errorf("profiled=%v: second predicate (%s) evaluations grew by %d, want the first's hits %d", profiled, order[1].Name, evals[1], hits[0])
		}
		if evals[0] == 0 || evals[0] > f.table.Rows() {
			t.Errorf("profiled=%v: first predicate (%s) evaluations grew by %d of %d rows", profiled, order[0].Name, evals[0], f.table.Rows())
		}
	}
}
