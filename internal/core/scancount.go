package core

// ScanCounts is chunk-level scan accounting for one column in one
// kernel call: how many 64-row chunks were resolved by reading the
// packed payload (Scanned) versus answered by zone-map verdicts,
// constant folds, chunk bounds, or dead selection masks without
// touching the payload (Pruned). The counted kernel variants
// (MaskRangeCounted, ReduceRangeCounted, ...) accumulate into a caller
// slot; across one full pass over a column, Scanned+Pruned equals the
// column's chunk count. A nil *ScanCounts disables accounting — the
// uncounted entry points, which callers outside colstore's scan use,
// pass nil, and pay one predictable nil check per chunk group, never per
// element.
type ScanCounts struct {
	Scanned uint64
	Pruned  uint64
}

func (c *ScanCounts) addScanned(n uint64) {
	if c != nil {
		c.Scanned += n
	}
}

func (c *ScanCounts) addPruned(n uint64) {
	if c != nil {
		c.Pruned += n
	}
}

// Add folds another accounting slot into c (the per-worker fold).
func (c *ScanCounts) Add(o ScanCounts) {
	c.Scanned += o.Scanned
	c.Pruned += o.Pruned
}
