// Zone maps on the core hot path: a SmartArray can carry an
// encoding.ZoneIndex on its repr snapshot, and a View carries the index of
// the snapshot it was taken from. View.Mask and View.Reduce (and the
// package-level kernels that call them) consult it to resolve whole
// chunks (all rows match or none do; a constant chunk or a wholly
// selected one's min/max) without touching the packed payload. The index
// rides the snapshot, so Reencode rebuilds it atomically and a write
// through Init drops it before mutating.
package core

import (
	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// BuildZoneIndex computes per-chunk min/max statistics for the current
// representation and attaches them to the snapshot, returning the index
// (nil for a freed array). Codecs with per-chunk structure (RLE runs,
// delta bases, dict ids) build without a full decode; the others take one
// chunk-decode pass.
func (a *SmartArray) BuildZoneIndex() *encoding.ZoneIndex {
	a.reencodeMu.Lock()
	defer a.reencodeMu.Unlock()
	rp := a.rep.Load()
	if rp.codecs == nil {
		return nil
	}
	z := encoding.BuildZoneIndex(rp.codecs[0])
	rp.zones.Store(z)
	return z
}

// ZoneIndex returns the current representation's zone index, or nil when
// none has been built (or a write dropped it).
func (a *SmartArray) ZoneIndex() *encoding.ZoneIndex {
	return a.rep.Load().zones.Load()
}

// superWindow reports whether a window of remaining chunks starting at
// chunk covers a whole super zone from its first chunk, so one coarse
// verdict can stand for all of its fine entries.
func superWindow(chunk, remaining uint64) bool {
	return chunk%encoding.ZoneFanout == 0 && remaining >= encoding.ZoneFanout
}

// maskChunks builds the match masks of chunks [first, first+n): filled
// into masks[0:n], or with and set ANDed into them, chunks whose word is
// already dead left alone. Without a zone index that is one range-kernel
// call. With one, every chunk the index decides (all rows match, or none)
// is resolved without touching the payload, and each maximal run of
// undecided chunks between them goes to the codec's range compare in one
// call — the layout is dispatched on once per run, never per chunk. A fill
// also resolves whole super zones inside the window with one coarse check
// per encoding.ZoneFanout chunks — on clustered or sorted data most of
// the window never reads even the fine zone entries. That shortcut needs
// a window of at least ZoneFanout aligned chunks, which no table scan
// passes: colstore's batches are 32 chunks, and its plan-time step
// (colstore.liveRuns) drops empty super zones before any batch exists.
// The callers that reach it mask a whole column in one call —
// BenchmarkPrunedScan's timed sweep and the measured benchmark's
// core.zone_prune_ns_per_chunk probe and answer oracle. Chunks the kernel
// evaluated accumulate into sc as scanned, all others as pruned (sc may
// be nil).
func (v *View) maskChunks(first, n uint64, op bitpack.Cmp, threshold uint64, masks []uint64, and bool, sc *ScanCounts) {
	z := v.zones
	if z == nil {
		scanned := v.codec.CmpMaskChunks(first, first+n, op, threshold, masks, and)
		sc.addScanned(scanned)
		sc.addPruned(n - scanned)
		return
	}
	var scanned uint64
	run := uint64(0) // start of the current run of undecided chunks
	flush := func(end uint64) {
		if run < end {
			scanned += v.codec.CmpMaskChunks(first+run, first+end, op, threshold, masks[run:end], and)
		}
	}
	for c := uint64(0); c < n; c++ {
		if and {
			// A dead word stays in its run (the kernel skips it) and so
			// does one the index empties; only a chunk where every row
			// matches, whose word must be kept as it is, ends the run.
			if masks[c] == 0 {
				continue
			}
			switch z.Verdict(first+c, op, threshold) {
			case encoding.ZoneNone:
				masks[c] = 0
			case encoding.ZoneAll:
				flush(c)
				run = c + 1
			}
			continue
		}
		verdict, span := encoding.ZoneMixed, uint64(1)
		if superWindow(first+c, n-c) {
			verdict, span = z.SuperVerdict((first+c)/encoding.ZoneFanout, op, threshold), encoding.ZoneFanout
		}
		if verdict == encoding.ZoneMixed {
			verdict, span = z.Verdict(first+c, op, threshold), 1
		}
		if verdict == encoding.ZoneMixed {
			continue
		}
		flush(c)
		fill := uint64(0)
		if verdict == encoding.ZoneAll {
			fill = ^uint64(0)
		}
		for i := c; i < c+span; i++ {
			masks[i] = fill
		}
		c += span - 1
		run = c + 1
	}
	flush(n)
	sc.addScanned(scanned)
	sc.addPruned(n - scanned)
}
