package perfmodel

import "smartarrays/internal/encoding"

// Shared-scan entries: the per-query cost of riding the table's circular
// scan versus running an independent zone-pruned scan. A ride shares
// exactly what colstore.ScanRange shares: one mask build (zone check +
// chunk decode + compare) per predicate signature per batch, so the walk
// amortizes over the query's same-signature mates and nobody else; every
// rider still pays its own masked fold, and riding itself has a price —
// the overhead factor below.

// SharedScanRideOverhead is what riding the ring costs a query on top of
// its own work, as a share of one full unpruned wave (mask walk + fold):
// several segment loops and their barriers instead of one loop, the
// handoff to the driver goroutine and back, and the wait for the pass in
// flight to end before a new rider attaches (half a segment on average).
//
// Measured, not tuned to produce a decision: BenchmarkScanUniqueTwoCallers
// (internal/queryd, `make bench-scan`: two closed-loop callers, 4 Mi rows,
// saserve's shipping config, -cpu 2; medians of seven interleaved runs of
// 200 queries per caller on this repo's 2-CPU host) read 9.03 ms/query
// for distinct thresholds (no mates: every query its own ScanRange on the
// whole pool) and 5.88 ms/query for identical plans (coalesced twins: one
// wave answers both, so a free ride would read half of 9.03). The excess
// is the ride as it really goes, a mate that was expected and bypassed
// instead included: 5.88/9.03 − 0.5 = 0.15 (0.154 as the median of the
// per-run ratios). Re-validated against the case the constant was not
// derived from: same signature, different aggregates (one shared mask
// build, two folds) read 8.17 ms/query, 0.905 of distinct, against the
// 0.90 this model predicts (walk/2 + fold + 0.15 wave at the model's
// walk = fold for a 16-bit column). Every run is in EXPERIMENTS.md, "Ride
// only what is shared". No bandwidth credit is modeled: the harness's
// multiscan probe (four distinct-predicate states in one pass cost four
// scans) shows none on this host.
const SharedScanRideOverhead = 0.15

// CostSharedScan prices one query's ride over a representation summarized
// by cs: the zone-pruned mask walk split with mates same-signature riders
// (resolvedShare of the chunks resolve in the zone index, as in the
// independent scan — the ring prunes too), the query's own masked fold
// (foldShare of the chunks carry live bits), and the ride overhead.
func CostSharedScan(cs encoding.CostStats, foldShare, resolvedShare float64, mates int) float64 {
	if mates < 0 {
		mates = 0
	}
	fold := CostEncodedMaskedReduce(cs)
	wave := CostZoneCheckPerElem + CostEncodedMask(cs) + fold
	return CostEncodedPrunedMask(cs, resolvedShare)/float64(mates+1) +
		clampShare(foldShare)*fold + SharedScanRideOverhead*wave
}
