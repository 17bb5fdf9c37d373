// Per-query scan profiling for the table scan. Every pass routes its
// chunk work through the counted core kernels and accumulates per-column
// ScanCounts in the state's per-worker rows — the same
// owner-writes/fold-at-barrier discipline as the counter shards, so
// accounting adds no locks or shared atomics to the batch hot path. After
// the loop barrier the rows fold into the query profile on the pass's
// runtime view (rts.Runtime.WithProfile) as obs.ColumnProfile entries:
// codec kind, chunks scanned vs pruned, and payload bytes attributed
// pro-rata to the decoded chunks.
package colstore

import (
	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// columnProfile renders one column's accounting. BytesDecoded charges
// the column's packed payload pro-rata per scanned chunk — exact for
// fixed-stride codecs, a fair estimate for run-length ones.
func columnProfile(col *Column, role string, sc core.ScanCounts) obs.ColumnProfile {
	arr := col.arr
	chunks := columnChunks(arr)
	var bytes uint64
	if chunks > 0 {
		bytes = sc.Scanned * ((arr.CompressedBytes() + chunks - 1) / chunks)
	}
	return obs.ColumnProfile{
		Column:        col.Name,
		Role:          role,
		Codec:         arr.EncodingKind().String(),
		Chunks:        chunks,
		ChunksScanned: sc.Scanned,
		ChunksPruned:  sc.Pruned,
		BytesDecoded:  bytes,
	}
}

// columnChunks is the column's total chunk count — the invariant target
// for ChunksScanned+ChunksPruned over a full pass.
func columnChunks(arr *core.SmartArray) uint64 {
	return (arr.Length() + bitpack.ChunkSize - 1) / bitpack.ChunkSize
}

// accountMasked splits a batch's n chunks for a column consumed under a
// selection bitmap: chunks whose mask went dead are never touched
// (pruned), live ones are decoded (scanned).
func accountMasked(sc *core.ScanCounts, masks []uint64) {
	dead := bitpack.ZeroMasks(masks)
	sc.Scanned += uint64(len(masks)) - dead
	sc.Pruned += dead
}

// buildMasks fills masks with the selection bitmap of the predicate
// conjunction over rows [lo, hi) and reports whether any row survives.
// The first predicate overwrites, later ones AND in with already-dead
// chunks skipped, so low-selectivity leading predicates short-circuit the
// rest of the pipeline. Each predicate pass feeds the column's observed
// selectivity (evaluated candidates vs surviving rows) back into its
// access profile — the signal orderPreds consumes — at the cost of one
// mask popcount per predicate, and only when telemetry is attached.
//
// counts[i] (the scan state's per-worker row) accumulates predicate i's
// chunk counts in evaluation order. Chunks a predicate never saw because
// the conjunction died earlier count as pruned for the remaining
// predicates, preserving scanned+pruned == chunks per column.
func buildMasks(w *rts.Worker, lo, hi uint64, predCols []*Column, preds []Pred, masks []uint64, counts []core.ScanCounts) bool {
	live := core.MaskRangeCounted(predCols[0].arr, w.Socket, lo, hi, preds[0].Op.cmp(), preds[0].Value, masks, &counts[0])
	var prevHits uint64
	prevKnown := predCols[0].arr.TelemetryID() != 0
	if prevKnown {
		prevHits = bitpack.PopcountMasks(masks)
		predCols[0].arr.AccountPredicate(w.Counters, hi-lo, prevHits)
	}
	i := 1
	for ; i < len(preds) && live; i++ {
		tele := predCols[i].arr.TelemetryID() != 0
		if tele && !prevKnown {
			prevHits = bitpack.PopcountMasks(masks)
		}
		live = core.MaskRangeAndCounted(predCols[i].arr, w.Socket, lo, hi, preds[i].Op.cmp(), preds[i].Value, masks, &counts[i])
		if tele {
			hits := bitpack.PopcountMasks(masks)
			predCols[i].arr.AccountPredicate(w.Counters, prevHits, hits)
			prevHits = hits
		}
		prevKnown = tele
	}
	// Predicates short-circuited by a dead conjunction never touched this
	// batch's chunks: all pruned for them.
	for ; i < len(preds); i++ {
		counts[i].Pruned += uint64(len(masks))
	}
	return live
}
