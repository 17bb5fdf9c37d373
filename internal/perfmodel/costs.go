package perfmodel

// Instruction-cost model for the scan kernels, in modeled instructions per
// element. These constants are the calibration knobs described in DESIGN.md
// §5: they are fixed once against the paper's Figure 2 / Figure 10 regimes
// and then reused unchanged by every experiment.
//
// The qualitative requirements they encode (paper §4.2, §5.1):
//   - uncompressed scans are a handful of instructions per element, so scans
//     saturate memory bandwidth;
//   - bit-compressed accesses add a width-dependent shift/mask/branch load
//     ("each processed element needs to be ... decompressed to 64 bits"),
//     large enough that the 8-core machine cannot hide it behind its memory
//     bandwidth but the 18-core machine can.
const (
	// CostScanU64 is instructions per element for an uncompressed 64-bit
	// iterator step (load, add, advance).
	CostScanU64 = 3.0
	// CostScanU32 is instructions per element for the specialized 32-bit
	// iterator (load, shift/mask, add, advance).
	CostScanU32 = 4.0
	// CostRandomGet is the extra instructions for a random (non-iterator)
	// uncompressed access: address computation plus the load.
	CostRandomGet = 4.0
	// costUnpackBase/costUnpackPerBit parameterize the chunk-unpack cost of
	// a bit-compressed element: a base of shift/mask/branch work plus a
	// width-dependent term for the cross-word combines.
	costUnpackBase   = 9.0
	costUnpackPerBit = 0.25
	// CostInitU64 is instructions per element to initialize an
	// uncompressed element; compressed init adds the pack cost.
	CostInitU64 = 2.0

	// Fused-reduction costs (bitpack.SumChunks and friends): the kernel
	// folds each element into the accumulator as it is extracted from the
	// packed word, so the iterator's buffer store/reload and per-element
	// advance disappear.
	//
	// CostReduceU64 is instructions per element for the fused uncompressed
	// 64-bit reduction (load, fold).
	CostReduceU64 = 2.0
	// CostReduceU32 is instructions per element for the fused 32-bit
	// reduction (load amortized over two elements, shift/mask, fold).
	CostReduceU32 = 3.0
	// costReduceBase/costReducePerBit parameterize the fused compressed
	// reduction: the unpack schedule's shift/mask/branch work remains, the
	// chunk buffer traffic and the per-element iterator overhead do not.
	costReduceBase   = 6.0
	costReducePerBit = 0.25

	// Selection-bitmap costs (bitpack.CmpMaskChunk and the masked folds):
	// building a mask is the fused decode schedule plus one compare and a
	// bit deposit per element; a masked fold is the fused fold plus the
	// per-element mask test (the dense branch-free select), with dead and
	// full chunks costing strictly less — these are the worst-case
	// per-element constants.
	//
	// CostMaskU64/CostMaskU32 are instructions per element for the
	// uncompressed mask builds (load, compare, shift/or the bit).
	CostMaskU64 = 3.0
	CostMaskU32 = 4.0
	// costMaskBase/costMaskPerBit parameterize the compressed mask build.
	costMaskBase   = 7.0
	costMaskPerBit = 0.25

	// Batched gather costs (bitpack.Gather): decoding an index
	// vector's elements with the codec fields hoisted out of the loop. One
	// width dispatch per vector instead of per element puts every width well
	// below the per-call CostGet.
	//
	// CostGatherU64 is instructions per gathered element at 64 bits (index
	// load, element load, store).
	CostGatherU64 = 3.0
	// CostGatherU32 adds the shift/mask of the 32-bit fast path.
	CostGatherU32 = 3.5
	// CostGatherPacked is the flat per-element cost of the compressed
	// gather: Function 1's address math with the mask and words-per-chunk
	// in registers. Width-independent because the straddle branch, not the
	// shift distance, dominates.
	CostGatherPacked = 8.0

	// Streaming-range costs (core's View.Read): decode a [lo,hi) run
	// chunk-at-a-time into a caller buffer. Strictly below CostScan at
	// every width — the iterator's per-element advance and chunk-boundary
	// branch are gone.
	//
	// CostStreamU64 is instructions per element for the 64-bit range
	// stream (bounds math amortized over the run).
	CostStreamU64 = 1.5
	// CostStreamU32 is instructions per element for the 32-bit stream
	// (load amortized over two elements, shift/mask, store).
	CostStreamU32 = 2.5
	// costStreamBase/costStreamPerBit parameterize the compressed stream:
	// the chunk-unpack schedule without the iterator overhead, plus the
	// buffer store.
	costStreamBase   = 5.0
	costStreamPerBit = 0.25
)

// CostScan returns the modeled instructions per element for sequentially
// iterating a smart array stored at the given width. Widths 32 and 64 use
// the specialized uncompressed iterators (paper §4.3); everything else pays
// the chunk-unpack cost.
func CostScan(bits uint) float64 {
	switch bits {
	case 64:
		return CostScanU64
	case 32:
		return CostScanU32
	default:
		return costUnpackBase + costUnpackPerBit*float64(bits)
	}
}

// CostReduce returns the modeled instructions per element for folding a
// smart array stored at the given width through the fused packed-scan
// kernels (bitpack.SumChunks/MinChunks/MaxChunks via core.ReduceRange).
// It is strictly below CostScan at every width: the fused path decodes and
// folds in one pass over the packed words.
func CostReduce(bits uint) float64 {
	switch bits {
	case 64:
		return CostReduceU64
	case 32:
		return CostReduceU32
	default:
		return costReduceBase + costReducePerBit*float64(bits)
	}
}

// CostMask returns the modeled instructions per element for evaluating a
// threshold predicate over a packed chunk into a selection bitmap
// (bitpack.CmpMaskChunk). It sits one compare above CostReduce at every
// width and strictly below CostScan + compare: the mask build replaces the
// per-row decode entirely.
func CostMask(bits uint) float64 {
	switch bits {
	case 64:
		return CostMaskU64
	case 32:
		return CostMaskU32
	default:
		return costMaskBase + costMaskPerBit*float64(bits)
	}
}

// CostGather returns the modeled instructions per element for a batched
// index-vector gather (bitpack.Gather) at the given width. It sits below
// CostGet at every width: the width dispatch, mask load, and bounds check
// are paid once per vector, not once per element.
func CostGather(bits uint) float64 {
	switch bits {
	case 64:
		return CostGatherU64
	case 32:
		return CostGatherU32
	default:
		return CostGatherPacked
	}
}

// CostStream returns the modeled instructions per element for streaming a
// [lo,hi) run through core's View.Read. It is strictly below CostScan
// at every width: long decoded runs replace the iterator's per-element
// stepping.
func CostStream(bits uint) float64 {
	switch bits {
	case 64:
		return CostStreamU64
	case 32:
		return CostStreamU32
	default:
		return costStreamBase + costStreamPerBit*float64(bits)
	}
}

// CostGet returns the modeled instructions for one random Get at the given
// width: Function 1's shift/mask work, doubled when elements can straddle
// two words.
func CostGet(bits uint) float64 {
	switch bits {
	case 64, 32:
		return CostRandomGet
	default:
		return CostRandomGet + 6
	}
}

// CostInit returns the modeled instructions per element for initializing at
// the given width (Function 2), per replica written.
func CostInit(bits uint) float64 {
	switch bits {
	case 64, 32:
		return CostInitU64
	default:
		return CostInitU64 + 6
	}
}

// CacheLineBytes is the transfer granularity of the modeled memory system.
const CacheLineBytes = 64

// RandomReadBytes estimates the effective DRAM bytes per random element
// read of elemBytes from an array of arrayBytes, given llcBytes of
// last-level cache reachable by the reading thread. Each miss pulls a full
// cache line; the hit fraction is the cached share of the array, boosted by
// localityBoost for skewed (e.g. power-law) access distributions where hot
// elements stay resident.
func RandomReadBytes(arrayBytes, elemBytes, llcBytes float64, localityBoost float64) float64 {
	if arrayBytes <= 0 {
		return 0
	}
	hit := llcBytes / arrayBytes * localityBoost
	if hit > 1 {
		hit = 1
	}
	miss := 1 - hit
	eff := miss * CacheLineBytes
	if eff < elemBytes {
		eff = elemBytes
	}
	return eff
}

// PowerLawLocalityBoost is the calibration constant for rank-style gathers
// over power-law graphs: community structure and hub vertices keep hot
// cache lines resident far beyond the uniform-probability estimate. See
// EXPERIMENTS.md (PageRank calibration).
const PowerLawLocalityBoost = 6.0
