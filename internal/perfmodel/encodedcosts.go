package perfmodel

import (
	"smartarrays/internal/encoding"
)

// Per-codec instruction-cost entries for the encoding zoo, in modeled
// instructions per element — the representation counterpart of the
// width-parameterized entries in costs.go. They encode the structural
// facts the chunk-codec kernels exploit:
//
//   - Plain decodes like the uncompressed 64-bit paths.
//   - BitPacked and FoR are the §4.2 decode schedule at their code width
//     (FoR adds one reference-offset add per element).
//   - Dict folds pay the ID-width decode plus an in-cache dictionary
//     lookup; predicate masks and counts run purely in ID space.
//   - RLE folds are O(runs), not O(elements): the per-element cost is the
//     per-run work times runs-per-element plus loop bookkeeping — the
//     >10x on sorted/clustered columns. Random access pays the sparse
//     index search.
//   - Delta folds skip constant chunks entirely; decoded chunks pay the
//     unpack schedule plus the prefix-sum add. Random access is the
//     codec's weakness: it decodes a partial chunk per element.
const (
	// costDictLookup is the in-cache dictionary fetch a value-producing
	// Dict access adds on top of the ID decode.
	costDictLookup = 1.5
	// costRLERunFold is the per-run work of a run-skipping fold: decode
	// the run value and length, evaluate, advance.
	costRLERunFold = 12.0
	// costRLEPerElem is the residual per-element bookkeeping of walking
	// segments (position advance amortized over runs).
	costRLEPerElem = 0.25
	// costRLESeek is a random access: sparse-index binary search plus the
	// in-stride run walk.
	costRLESeek = 25.0
	// costDeltaConstChunk is the whole-chunk work on a constant chunk
	// (test the packed words, fold once), amortized per element.
	costDeltaConstChunk = 8.0 / 64.0
	// costDeltaPrefixAdd is the per-element zigzag undo + prefix add a
	// decoded delta chunk pays on top of the unpack schedule.
	costDeltaPrefixAdd = 1.5
	// costDeltaGet is a random access: decode half a chunk on average.
	costDeltaGet = 40.0
	// costFoRAdd is the per-element reference add.
	costFoRAdd = 0.25
)

// deltaMix blends the constant-chunk fast path with the decoded-chunk
// cost by the measured constant-chunk share.
func deltaMix(cs encoding.CostStats, decoded float64) float64 {
	return cs.ConstChunkShare*costDeltaConstChunk + (1-cs.ConstChunkShare)*decoded
}

// rleFold prices a run-skipping fold per element.
func rleFold(cs encoding.CostStats) float64 {
	return costRLERunFold*cs.RunsPerElem + costRLEPerElem
}

// CostEncodedScan returns the modeled instructions per element for
// sequentially iterating the encoded representation (chunk decode through
// the iterator path).
func CostEncodedScan(cs encoding.CostStats) float64 {
	switch cs.Kind {
	case encoding.Plain:
		return CostScanU64
	case encoding.Dict:
		return CostScan(cs.CodeBits) + costDictLookup
	case encoding.RLE:
		return rleFold(cs) + 1 // segment fill into the chunk buffer
	case encoding.Delta:
		return deltaMix(cs, CostScan(cs.CodeBits)+costDeltaPrefixAdd)
	case encoding.FoR:
		return CostScan(cs.CodeBits) + costFoRAdd
	default: // BitPacked
		return CostScan(cs.CodeBits)
	}
}

// CostEncodedReduce returns the modeled instructions per element for the
// fused fold over the encoded representation.
func CostEncodedReduce(cs encoding.CostStats) float64 {
	switch cs.Kind {
	case encoding.Plain:
		return CostReduceU64
	case encoding.Dict:
		return CostReduce(cs.CodeBits) + costDictLookup
	case encoding.RLE:
		return rleFold(cs)
	case encoding.Delta:
		return deltaMix(cs, CostReduce(cs.CodeBits)+costDeltaPrefixAdd)
	case encoding.FoR:
		return CostReduce(cs.CodeBits) + costFoRAdd
	default:
		return CostReduce(cs.CodeBits)
	}
}

// CostEncodedMask returns the modeled instructions per element for
// building a selection bitmap over the encoded representation. Dict and
// FoR rewrite the threshold and mask at the code width; RLE evaluates
// once per run; Delta skips constant chunks.
func CostEncodedMask(cs encoding.CostStats) float64 {
	switch cs.Kind {
	case encoding.Plain:
		return CostMaskU64
	case encoding.Dict, encoding.FoR:
		return CostMask(cs.CodeBits)
	case encoding.RLE:
		return rleFold(cs)
	case encoding.Delta:
		return deltaMix(cs, CostMask(cs.CodeBits)+costDeltaPrefixAdd)
	default:
		return CostMask(cs.CodeBits)
	}
}

// CostEncodedGather returns the modeled instructions per batched gathered
// element. Encodings without a batched kernel fall back to per-element
// Get cost.
func CostEncodedGather(cs encoding.CostStats) float64 {
	switch cs.Kind {
	case encoding.Plain:
		return CostGatherU64
	case encoding.Dict:
		return CostGather(cs.CodeBits) + costDictLookup
	case encoding.RLE:
		return costRLESeek
	case encoding.Delta:
		return cs.ConstChunkShare*CostGather(cs.CodeBits) + (1-cs.ConstChunkShare)*costDeltaGet
	case encoding.FoR:
		return CostGather(cs.CodeBits) + costFoRAdd
	default:
		return CostGather(cs.CodeBits)
	}
}
