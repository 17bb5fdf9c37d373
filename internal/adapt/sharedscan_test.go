package adapt

import (
	"testing"

	"smartarrays/internal/encoding"
)

// TestScoreSharedScanUniformEnrolls pins the headline case: un-prunable
// uniform predicates (the zone index resolves nothing, every chunk folds)
// should enroll as soon as one same-signature mate splits the walk.
func TestScoreSharedScanUniformEnrolls(t *testing.T) {
	cs := bitpacked16()
	for _, mates := range []int{1, 3, 15, 63} {
		s := ScoreSharedScan(cs, 1.0, 0.0, mates)
		if !s.Enroll {
			t.Errorf("uniform, %d mates: should enroll (indep %.2f, shared %.2f)", mates, s.Independent, s.Shared)
		}
	}
}

// TestScoreSharedScanSoloBypasses pins the rule the ring's economics
// rest on: without a same-signature mate there is no mask build to share
// — however many other queries are in flight — so the ride is the
// independent scan plus the ride overhead and never wins, on any
// representation or pruning profile.
func TestScoreSharedScanSoloBypasses(t *testing.T) {
	reps := []encoding.CostStats{
		bitpacked16(),
		{Kind: encoding.BitPacked, CodeBits: 33, PayloadBitsPerElem: 33},
		{Kind: encoding.Plain, CodeBits: 64, PayloadBitsPerElem: 64},
		{Kind: encoding.Dict, CodeBits: 4, PayloadBitsPerElem: 4},
		{Kind: encoding.FoR, CodeBits: 12, PayloadBitsPerElem: 12},
	}
	for _, cs := range reps {
		for _, shares := range [][2]float64{{1, 0}, {0.5, 0.5}, {0.05, 0.95}, {0, 1}} {
			if s := ScoreSharedScan(cs, shares[0], shares[1], 0); s.Enroll || s.Shared <= s.Independent {
				t.Errorf("%v fold %.2f resolved %.2f: query without mates enrolled: %+v", cs.Kind, shares[0], shares[1], s)
			}
		}
	}
}

// TestScoreSharedScanSelectiveBypasses pins the adaptive bypass: a highly
// selective zone-resolved predicate's independent scan sits near the
// zone-check floor, so what is left of its walk to split is worth less
// than the ride costs, at every mate count.
func TestScoreSharedScanSelectiveBypasses(t *testing.T) {
	cs := bitpacked16()
	for _, mates := range []int{1, 7, 63, 1023} {
		s := ScoreSharedScan(cs, 0.05, 0.95, mates)
		if s.Enroll {
			t.Errorf("selective, %d mates: should bypass (indep %.2f, shared %.2f)", mates, s.Independent, s.Shared)
		}
	}
}

// TestScoreSharedScanMonotonicInBatch checks one more mate never makes
// the ride look worse — the walk only splits further.
func TestScoreSharedScanMonotonicInBatch(t *testing.T) {
	cs := bitpacked16()
	prev := -1.0
	for mates := 0; mates <= 128; mates = 2*mates + 1 {
		s := ScoreSharedScan(cs, 1.0, 0.0, mates)
		if prev >= 0 && s.Shared > prev {
			t.Fatalf("%d mates: shared cost %.3f rose above %.3f", mates, s.Shared, prev)
		}
		prev = s.Shared
	}
}
