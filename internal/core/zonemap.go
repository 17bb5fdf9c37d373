// Zone maps on the core hot path: a SmartArray can carry an
// encoding.ZoneIndex on its repr snapshot. MaskRange, MaskRangeAnd,
// CountRange, ReduceRange, and ReduceRangeMasked consult it to resolve
// whole chunks (all rows match, or none do) without touching the packed
// payload. The index rides the snapshot, so Reencode rebuilds it
// atomically and a write through Init drops it before mutating.
package core

import (
	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// BuildZoneIndex computes per-chunk min/max statistics for the current
// representation and attaches them to the snapshot, returning the index
// (nil for a freed array). Codecs with per-chunk structure (RLE runs,
// delta bases, dict ids) build without a full decode; native packed words
// take one chunk-decode pass.
func (a *SmartArray) BuildZoneIndex() *encoding.ZoneIndex {
	a.reencodeMu.Lock()
	defer a.reencodeMu.Unlock()
	rp := a.rep.Load()
	if rp.region == nil {
		return nil
	}
	var z *encoding.ZoneIndex
	if rp.enc != nil {
		z = encoding.BuildZoneIndex(rp.enc)
	} else {
		replica := rp.region.Replica(0)
		codec := a.codec
		z = encoding.BuildZoneIndexFunc(a.length, func(chunk uint64, out *[bitpack.ChunkSize]uint64) {
			codec.Unpack(replica, chunk, out)
		})
	}
	rp.zones.Store(z)
	return z
}

// ZoneIndex returns the current representation's zone index, or nil when
// none has been built (or a write dropped it).
func (a *SmartArray) ZoneIndex() *encoding.ZoneIndex {
	return a.rep.Load().zones.Load()
}

// ZoneBounds returns the whole array's min/max from the zone index root;
// ok is false when no index is attached.
func (a *SmartArray) ZoneBounds() (mn, mx uint64, ok bool) {
	z := a.ZoneIndex()
	if z == nil {
		return 0, 0, false
	}
	mn, mx = z.Bounds()
	return mn, mx, true
}

// superWindow reports whether a window of remaining chunks starting at
// chunk covers a whole super zone from its first chunk, so one coarse
// verdict can stand for all of its fine entries.
func superWindow(chunk, remaining uint64) bool {
	return chunk%encoding.ZoneFanout == 0 && remaining >= encoding.ZoneFanout
}

// zoneMaskFill fills masks[0:n] for chunks [first, first+n) by resolving
// each chunk through the zone index where possible and comparing the
// payload for the rest. Whole super zones inside the window resolve with
// one coarse check per encoding.ZoneFanout chunks — on clustered or sorted
// data most of the window never reads even the fine zone entries. That
// shortcut needs a window of at least ZoneFanout aligned chunks, which no
// table scan passes: colstore's batches are 32 chunks, and its plan-time
// step (colstore.liveRuns) drops empty super zones before any batch
// exists. The callers that reach it mask a whole column in one call —
// internal/bench/pruning.go's timed sweep and the measured benchmark's
// core.zone_prune_ns_per_chunk probe and answer oracle. Zone-resolved
// chunks accumulate into sc as pruned, compared chunks as scanned (sc may
// be nil).
func zoneMaskFill(v *View, first, n uint64, op bitpack.Cmp, threshold uint64, masks []uint64, sc *ScanCounts) {
	z := v.zones
	c := uint64(0)
	var scanned uint64
	for c < n {
		chunk := first + c
		if superWindow(chunk, n-c) {
			switch z.SuperVerdict(chunk/encoding.ZoneFanout, op, threshold) {
			case encoding.ZoneNone:
				for i := uint64(0); i < encoding.ZoneFanout; i++ {
					masks[c+i] = 0
				}
				c += encoding.ZoneFanout
				continue
			case encoding.ZoneAll:
				for i := uint64(0); i < encoding.ZoneFanout; i++ {
					masks[c+i] = ^uint64(0)
				}
				c += encoding.ZoneFanout
				continue
			}
		}
		switch z.Verdict(chunk, op, threshold) {
		case encoding.ZoneNone:
			masks[c] = 0
		case encoding.ZoneAll:
			masks[c] = ^uint64(0)
		default:
			masks[c] = v.cmpMaskChunk(chunk, op, threshold)
			scanned++
		}
		c++
	}
	sc.addScanned(scanned)
	sc.addPruned(n - scanned)
}
