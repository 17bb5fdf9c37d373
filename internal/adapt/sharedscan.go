package adapt

import (
	"smartarrays/internal/encoding"
	"smartarrays/internal/perfmodel"
)

// Shared-scan enrollment scoring: should this query ride the table's
// circular scan or run its own zone-pruned scan? The DimmWitted tradeoff
// applied to the scan cursor — a ride splits the mask walk with the
// riders that have the same predicate signature (the only thing the
// executor shares) and costs the ride overhead, so it wins when the walk
// is a large part of the query and someone is there to split it with, and
// loses for a query without mates or one whose walk the zone index
// already resolves (independent cost near the zone-check floor).

// SharedScanScore is the modeled per-element choice for one query.
type SharedScanScore struct {
	// Independent is the query's own zone-pruned scan (mask + fold).
	Independent float64
	// Shared is the query's cost riding with Mates same-signature riders.
	Shared float64
	// Mates is the same-signature rider estimate the score was taken at.
	Mates int
	// Gain is Independent / Shared — >1 means enrolling wins.
	Gain float64
	// Enroll is the decision: the ride beats the independent scan. Never
	// at zero mates — the ride is then the same work plus the overhead.
	Enroll bool
}

// ScoreSharedScan prices enrollment for a query over a representation
// summarized by cs. resolvedShare is the share of chunks the zone index
// resolves outright for the query's predicates (no payload touched);
// foldShare is the share still carrying live mask bits into the fold
// (both from encoding.ZoneIndex.PruneStatsFor, conservatively combined
// over the conjunction). mates is the number of other queries with the
// same predicate signature expected on the ring during this ride.
func ScoreSharedScan(cs encoding.CostStats, foldShare, resolvedShare float64, mates int) SharedScanScore {
	independent := perfmodel.CostEncodedPrunedMask(cs, resolvedShare) +
		perfmodel.CostEncodedPrunedMaskedReduce(cs, foldShare)
	shared := perfmodel.CostSharedScan(cs, foldShare, resolvedShare, mates)
	s := SharedScanScore{Independent: independent, Shared: shared, Mates: mates}
	if shared > 0 {
		s.Gain = independent / shared
	}
	s.Enroll = shared < independent
	return s
}
