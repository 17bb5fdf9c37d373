package perfmodel

// Zone-map pruning entries: the cost of a predicated scan when a chunk
// zone index (per-chunk min/max, see encoding.ZoneIndex) resolves part of
// the range without touching the payload. The entries are parameterized
// by the share of chunks the index resolves; the modeled skip-path check
// (TestModeledSkipPathsTenfold) feeds in the exact shares
// encoding.ZoneIndex.PruneStatsFor measures on its datasets.

// CostZoneCheckPerElem is the amortized per-element cost of consulting
// the per-chunk zone statistics: two loads and roughly two compares per
// 64-element chunk. The coarse super-zone level makes the real check
// cheaper on clustered data; this flat value is the conservative bound.
const CostZoneCheckPerElem = 3.0 / 64.0

// clampShare clamps a share parameter to [0, 1].
func clampShare(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// CostPrunedMask prices a selection-bitmap build over a native width when
// resolvedShare of the chunks resolve through the zone index (all-match
// and no-match verdicts emit constant masks without decoding).
func CostPrunedMask(bits uint, resolvedShare float64) float64 {
	return CostZoneCheckPerElem + (1-clampShare(resolvedShare))*CostMask(bits)
}

// CostPrunedMaskedReduce prices the masked fold after pruning: only
// foldShare of the chunks still carry live mask bits and reach the fused
// masked kernel.
func CostPrunedMaskedReduce(bits uint, foldShare float64) float64 {
	return clampShare(foldShare) * CostMaskedReduce(bits)
}
