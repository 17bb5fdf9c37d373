package encoding

import "smartarrays/internal/bitpack"

// Zone maps: per-chunk minimum/maximum statistics over the stored values
// (elements are non-nullable, so every element counts). A predicate
// compared against a chunk's bounds often resolves the whole chunk — all
// 64 elements match, or none do — without touching the packed payload.
// A second, coarse level summarizes ZoneFanout chunks per "super zone" so
// that scans over clustered or sorted data resolve most regions with one
// check per 4096 elements instead of one per 64.
//
// The index is immutable once built; core attaches it to a representation
// snapshot and rebuilds it on re-encode from the already-decoded values.

// ZoneFanout is the number of chunks summarized by one super zone.
const ZoneFanout = 64

// ZoneVerdict is a zone check's outcome for one chunk (or super zone).
type ZoneVerdict int

const (
	// ZoneMixed means the bounds cannot resolve the chunk: evaluate it.
	ZoneMixed ZoneVerdict = iota
	// ZoneNone means no element in the chunk can satisfy the predicate.
	ZoneNone
	// ZoneAll means every element in the chunk satisfies the predicate.
	ZoneAll
)

// ZoneIndex holds per-chunk and per-super-zone value bounds for one
// array. Bounds cover only the valid elements of a ragged tail chunk; a
// ZoneAll verdict there is still safe because mask consumers clamp tail
// bits.
type ZoneIndex struct {
	mins, maxs   []uint64 // per chunk
	smins, smaxs []uint64 // per super zone (ZoneFanout chunks)
	length       uint64
}

// zoneBuilder is implemented by codecs with a cheaper-than-decode path
// for computing per-chunk bounds.
type zoneBuilder interface {
	buildZoneIndex() *ZoneIndex
}

func newZoneIndex(length uint64) *ZoneIndex {
	chunks := (length + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	z := &ZoneIndex{
		mins:   make([]uint64, chunks),
		maxs:   make([]uint64, chunks),
		length: length,
	}
	for i := range z.mins {
		z.mins[i] = ^uint64(0)
	}
	return z
}

// seal derives the super-zone level from the per-chunk bounds. Every
// builder finishes through here.
func (z *ZoneIndex) seal() *ZoneIndex {
	supers := (uint64(len(z.mins)) + ZoneFanout - 1) / ZoneFanout
	z.smins = make([]uint64, supers)
	z.smaxs = make([]uint64, supers)
	for s := uint64(0); s < supers; s++ {
		mn, mx := ^uint64(0), uint64(0)
		hi := (s + 1) * ZoneFanout
		if hi > uint64(len(z.mins)) {
			hi = uint64(len(z.mins))
		}
		for c := s * ZoneFanout; c < hi; c++ {
			if z.mins[c] < mn {
				mn = z.mins[c]
			}
			if z.maxs[c] > mx {
				mx = z.maxs[c]
			}
		}
		z.smins[s], z.smaxs[s] = mn, mx
	}
	return z
}

// NewZoneIndexFromValues builds the index with one pass over decoded
// values — the path Reencode uses, since it already holds the plain
// content.
func NewZoneIndexFromValues(values []uint64) *ZoneIndex {
	z := newZoneIndex(uint64(len(values)))
	for c := range z.mins {
		lo, hi := chunkSpan(z.length, uint64(c), uint64(c)+1)
		mn, mx := ^uint64(0), uint64(0)
		for _, v := range values[lo:hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		z.mins[c], z.maxs[c] = mn, mx
	}
	return z.seal()
}

// buildZoneIndexFunc builds the index from an arbitrary chunk decoder.
// decode must fill out with chunk c's elements; pad elements beyond the
// array length are ignored here.
func buildZoneIndexFunc(length uint64, decode func(chunk uint64, out *[bitpack.ChunkSize]uint64)) *ZoneIndex {
	z := newZoneIndex(length)
	var buf [bitpack.ChunkSize]uint64
	for c := range z.mins {
		decode(uint64(c), &buf)
		lo, hi := chunkSpan(length, uint64(c), uint64(c)+1)
		mn, mx := ^uint64(0), uint64(0)
		for _, v := range buf[:hi-lo] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		z.mins[c], z.maxs[c] = mn, mx
	}
	return z.seal()
}

// BuildZoneIndex builds the index for any chunk codec, taking the
// codec-specific shortcut when one exists (RLE walks runs, delta reads
// chunk bases for constant chunks, dict maps id bounds through the
// sorted dictionary).
func BuildZoneIndex(cc ChunkCodec) *ZoneIndex {
	if zb, ok := cc.(zoneBuilder); ok {
		return zb.buildZoneIndex()
	}
	return buildZoneIndexFunc(cc.Length(), cc.DecodeChunk)
}

// buildZoneIndex (RLE): one pass over the runs, O(runs + chunks) — the
// run index already knows every value and extent, so no decode happens.
func (r *RLEArray) buildZoneIndex() *ZoneIndex {
	z := newZoneIndex(r.length)
	r.forEachSegment(0, r.length, func(v, start, n uint64) {
		for c := start / bitpack.ChunkSize; c <= (start+n-1)/bitpack.ChunkSize; c++ {
			if v < z.mins[c] {
				z.mins[c] = v
			}
			if v > z.maxs[c] {
				z.maxs[c] = v
			}
		}
	})
	return z.seal()
}

// buildZoneIndex (delta): constant chunks get their bounds from the chunk
// base without touching the packed deltas; only varying chunks decode.
func (a *DeltaArray) buildZoneIndex() *ZoneIndex {
	z := newZoneIndex(a.length)
	var buf [bitpack.ChunkSize]uint64
	for c := range z.mins {
		if a.constChunk(uint64(c)) {
			v := a.bases.Get(uint64(c))
			z.mins[c], z.maxs[c] = v, v
			continue
		}
		a.DecodeChunk(uint64(c), &buf)
		lo, hi := chunkSpan(a.length, uint64(c), uint64(c)+1)
		mn, mx := ^uint64(0), uint64(0)
		for _, v := range buf[:hi-lo] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		z.mins[c], z.maxs[c] = mn, mx
	}
	return z.seal()
}

// buildZoneIndex (dict): bound the packed ids, then map through the
// dictionary — it is sorted, so min/max of ids are min/max of values.
func (d *DictArray) buildZoneIndex() *ZoneIndex {
	z := buildZoneIndexFunc(d.ids.Length(), d.ids.DecodeChunk)
	for c := range z.mins {
		z.mins[c] = d.dict[z.mins[c]]
		z.maxs[c] = d.dict[z.maxs[c]]
	}
	return z.seal()
}

// ChunkBounds returns chunk's value bounds (valid elements only).
func (z *ZoneIndex) ChunkBounds(chunk uint64) (mn, mx uint64) {
	return z.mins[chunk], z.maxs[chunk]
}

// SuperBounds returns super zone super's value bounds.
func (z *ZoneIndex) SuperBounds(super uint64) (mn, mx uint64) {
	return z.smins[super], z.smaxs[super]
}

// Constant reports whether chunk holds a single value, and which.
func (z *ZoneIndex) Constant(chunk uint64) (v uint64, ok bool) {
	if z.mins[chunk] == z.maxs[chunk] {
		return z.mins[chunk], true
	}
	return 0, false
}

// zoneVerdict resolves op/threshold against one [mn, mx] interval.
func zoneVerdict(mn, mx uint64, op bitpack.Cmp, threshold uint64) ZoneVerdict {
	switch op {
	case bitpack.CmpEq:
		if threshold < mn || threshold > mx {
			return ZoneNone
		}
		if mn == mx {
			return ZoneAll
		}
	case bitpack.CmpNe:
		if mn == mx && mn == threshold {
			return ZoneNone
		}
		if threshold < mn || threshold > mx {
			return ZoneAll
		}
	case bitpack.CmpLt:
		if mx < threshold {
			return ZoneAll
		}
		if mn >= threshold {
			return ZoneNone
		}
	case bitpack.CmpLe:
		if mx <= threshold {
			return ZoneAll
		}
		if mn > threshold {
			return ZoneNone
		}
	case bitpack.CmpGt:
		if mn > threshold {
			return ZoneAll
		}
		if mx <= threshold {
			return ZoneNone
		}
	case bitpack.CmpGe:
		if mn >= threshold {
			return ZoneAll
		}
		if mx < threshold {
			return ZoneNone
		}
	}
	return ZoneMixed
}

// Verdict resolves op/threshold against one chunk's bounds.
func (z *ZoneIndex) Verdict(chunk uint64, op bitpack.Cmp, threshold uint64) ZoneVerdict {
	return zoneVerdict(z.mins[chunk], z.maxs[chunk], op, threshold)
}

// SuperVerdict resolves op/threshold against one super zone's bounds; a
// non-Mixed verdict covers all of its chunks at once.
func (z *ZoneIndex) SuperVerdict(super uint64, op bitpack.Cmp, threshold uint64) ZoneVerdict {
	return zoneVerdict(z.smins[super], z.smaxs[super], op, threshold)
}
