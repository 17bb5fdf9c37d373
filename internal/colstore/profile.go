// Per-query scan accounting for the table scan. Every pass reads its
// columns through its per-worker column slots (scan.go), whose View
// methods count into the slot: chunks scanned and pruned, and for a
// predicate also the rows it evaluated and the rows that survived it.
// Only the owning worker writes its slots, so
// accounting adds no locks, shared atomics or map lookups to the batch
// hot path. After the pass the rows fold once: each predicate's
// evaluations and hits into its column's access profile in the array
// registry — the observed selectivity orderPreds reads — and, when the
// pass runs under a query profile (rts.Runtime.WithProfile), every
// column's chunk counts into it as obs.ColumnProfile entries: codec kind,
// chunks scanned vs pruned, and payload bytes attributed pro-rata to the
// decoded chunks.
package colstore

import (
	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/obs"
)

// colSlot is one column's slot in a worker's record (scan.go): the
// column's View, taken on the worker's first batch of the pass and read by
// every batch after it, its chunk counts and, for a predicate, evals rows
// evaluated (the batch's rows for the first predicate, the rows earlier
// ones left for the rest) and hits rows surviving it.
type colSlot struct {
	view core.View
	core.ScanCounts
	evals, hits uint64
}

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

// account charges a batch's n chunks of a column consumed under the
// selection masks (every chunk when masks is nil): chunks whose mask went
// dead are never touched (pruned), live ones are decoded (scanned).
func (c *colSlot) account(n uint64, masks []uint64) {
	dead := bitpack.ZeroMasks(masks)
	c.Scanned += n - dead
	c.Pruned += dead
}

// buildMasks fills masks with the selection bitmap of the predicate
// conjunction over rows [lo, hi) and returns how many rows survive it.
// The first predicate overwrites, later ones AND in with already-dead
// chunks skipped, so low-selectivity leading predicates short-circuit the
// rest of the pipeline.
//
// slots[i] (the worker's slot for predicate i in evaluation order) holds
// its column's view and accumulates its chunk counts and its evaluated
// and surviving rows: one mask popcount per predicate, whose last is the
// batch's survivor count. Chunks a predicate never saw because the
// conjunction died earlier count as pruned for the remaining predicates,
// preserving scanned+pruned == chunks per column.
func buildMasks(lo, hi uint64, preds []Pred, masks []uint64, slots []colSlot) (hits uint64) {
	hits = hi - lo
	i := 0
	for ; i < len(preds) && hits > 0; i++ {
		p, sl := preds[i], &slots[i]
		sl.view.Mask(lo, hi, p.Op.Cmp(), p.Value, masks, i > 0, &sl.ScanCounts)
		sl.evals += hits
		hits = bitpack.PopcountMasks(masks)
		sl.hits += hits
	}
	// Predicates short-circuited by a dead conjunction never touched this
	// batch's chunks: all pruned for them.
	for ; i < len(preds); i++ {
		slots[i].Pruned += uint64(len(masks))
	}
	return hits
}
