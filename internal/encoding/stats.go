package encoding

import (
	"smartarrays/internal/bitpack"
)

// Stats is everything one pass over a value slice needs to price every
// encoding technique exactly: min/max bound the bit-packed and
// frame-of-reference widths, the distinct count prices the dictionary,
// run statistics price RLE, and the chunk-first / zigzag maxima price
// delta. Select uses it to construct only the winning encoding instead
// of materializing every candidate.
type Stats struct {
	// N is the element count.
	N uint64
	// Min and Max bound the values (Min is ^0 when N is 0).
	Min, Max uint64
	// Distinct is the number of distinct values.
	Distinct uint64
	// Runs is the number of maximal equal-value runs; MaxRunLen the
	// longest.
	Runs, MaxRunLen uint64
	// MaxChunkFirst is the maximum over chunk-first values (delta bases);
	// MaxZigzag the maximum zigzag delta within chunks.
	MaxChunkFirst, MaxZigzag uint64
}

// Analyze computes Stats in one pass (plus a distinct-value set bounded
// by the cardinality).
func Analyze(values []uint64) Stats {
	var s Stats
	s.N = uint64(len(values))
	if s.N == 0 {
		s.Min = ^uint64(0)
		return s
	}
	s.Min = ^uint64(0)
	distinct := make(map[uint64]struct{}, 64)
	var runLen uint64
	for i, v := range values {
		if v > s.Max {
			s.Max = v
		}
		if v < s.Min {
			s.Min = v
		}
		distinct[v] = struct{}{}
		if i == 0 || v != values[i-1] {
			s.Runs++
			if runLen > s.MaxRunLen {
				s.MaxRunLen = runLen
			}
			runLen = 1
		} else {
			runLen++
		}
		if i%bitpack.ChunkSize == 0 {
			if v > s.MaxChunkFirst {
				s.MaxChunkFirst = v
			}
		} else if z := zigzag(v - values[i-1]); z > s.MaxZigzag {
			s.MaxZigzag = z
		}
	}
	if runLen > s.MaxRunLen {
		s.MaxRunLen = runLen
	}
	s.Distinct = uint64(len(distinct))
	return s
}

// EstimatePayloadBytes returns exactly what Build(kind, values) would
// report as PayloadBytes() for input with these stats — the formulas
// mirror the constructors, so selection can rank candidates without
// materializing them (verified by property test).
func EstimatePayloadBytes(kind Kind, s Stats) uint64 {
	if s.N == 0 {
		return 0
	}
	switch kind {
	case Plain:
		return bitpack.MustNew(64).CompressedBytes(s.N)
	case BitPacked:
		return bitpack.MustNew(bitpack.MinBits(s.Max)).CompressedBytes(s.N)
	case Dict:
		ids := bitpack.MustNew(bitpack.MinBits(s.Distinct - 1)).CompressedBytes(s.N)
		return ids + s.Distinct*8
	case RLE:
		vals := bitpack.MustNew(bitpack.MinBits(s.Max)).CompressedBytes(s.Runs)
		lens := bitpack.MustNew(bitpack.MinBits(s.MaxRunLen)).CompressedBytes(s.Runs)
		index := (s.Runs + rleIndexStride - 1) / rleIndexStride * 8
		return vals + lens + index
	case Delta:
		chunks := (s.N + bitpack.ChunkSize - 1) / bitpack.ChunkSize
		bases := bitpack.MustNew(bitpack.MinBits(s.MaxChunkFirst)).CompressedBytes(chunks)
		deltas := bitpack.MustNew(bitpack.MinBits(s.MaxZigzag)).CompressedBytes(s.N)
		return bases + deltas
	case FoR:
		return bitpack.MustNew(bitpack.MinBits(s.Max - s.Min)).CompressedBytes(s.N)
	default:
		return ^uint64(0)
	}
}

// EstimateCostStats predicts the cost-model summary Build(kind, values)
// would yield for input with these stats, without materializing the
// encoding — the re-encoder scores candidate representations with it.
// Delta's constant-chunk share uses the run-boundary lower bound (each of
// the Runs-1 value changes breaks at most one chunk), which is exact for
// sorted/clustered data.
func EstimateCostStats(kind Kind, s Stats) CostStats {
	cs := CostStats{Kind: kind, CodeBits: 64}
	if s.N == 0 {
		return cs
	}
	cs.PayloadBitsPerElem = float64(EstimatePayloadBytes(kind, s)*8) / float64(s.N)
	switch kind {
	case BitPacked:
		cs.CodeBits = bitpack.MinBits(s.Max)
	case Dict:
		cs.CodeBits = bitpack.MinBits(s.Distinct - 1)
	case RLE:
		cs.CodeBits = bitpack.MinBits(s.Max)
		cs.RunsPerElem = float64(s.Runs) / float64(s.N)
	case Delta:
		cs.CodeBits = bitpack.MinBits(s.MaxZigzag)
		chunks := (s.N + bitpack.ChunkSize - 1) / bitpack.ChunkSize
		if broken := s.Runs - 1; broken < chunks {
			cs.ConstChunkShare = float64(chunks-broken) / float64(chunks)
		}
	case FoR:
		cs.CodeBits = bitpack.MinBits(s.Max - s.Min)
	}
	return cs
}

// CostStats summarizes an encoded array's shape for the perfmodel's
// per-codec cost entries: the width its decode schedule shifts through,
// its storage density (the bandwidth term), and the structural signals
// (runs per element, constant-chunk share) behind the run-skipping and
// chunk-skipping fast paths.
type CostStats struct {
	Kind Kind
	// CodeBits is the packed width the chunk decode shifts through
	// (ID width for Dict, delta width for Delta, residual width for FoR;
	// 64 for Plain).
	CodeBits uint
	// PayloadBitsPerElem is storage bits per element.
	PayloadBitsPerElem float64
	// RunsPerElem is runs/length for RLE (0 otherwise) — folds cost
	// O(runs), not O(elements).
	RunsPerElem float64
	// ConstChunkShare is Delta's fraction of constant chunks, foldable
	// without decode.
	ConstChunkShare float64
}

// CostStatsOf derives the cost-model summary from a built encoding.
func CostStatsOf(e Encoded) CostStats {
	cs := CostStats{Kind: e.Kind(), CodeBits: 64}
	if n := e.Length(); n > 0 {
		cs.PayloadBitsPerElem = float64(e.PayloadBytes()*8) / float64(n)
	}
	switch a := e.(type) {
	case *BitPackedArray:
		cs.CodeBits = a.Bits()
	case *DictArray:
		cs.CodeBits = a.ids.Bits()
	case *RLEArray:
		cs.CodeBits = a.values.Bits()
		if a.length > 0 {
			cs.RunsPerElem = float64(a.runs) / float64(a.length)
		}
	case *DeltaArray:
		cs.CodeBits = a.deltas.Bits()
		cs.ConstChunkShare = a.ConstChunkShare()
	case *FoRArray:
		cs.CodeBits = a.Bits()
	}
	return cs
}
