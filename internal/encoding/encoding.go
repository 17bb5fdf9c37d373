// Package encoding implements the alternative lightweight compression
// techniques the paper plans beyond plain bit compression (§4.2, §7):
// dictionary, run-length, delta, and frame-of-reference encoding, plus a
// selector that picks the smallest encoding for a given value
// distribution — the paper's envisioned "ability to dynamically select
// the correct technique".
//
// All encodings expose the same read interface over 64-bit unsigned
// values and report their payload size, so the adaptivity machinery can
// trade them off. Beyond per-element Get, every encoding implements the
// ChunkCodec interface (chunk.go): chunk-granular decode, one fold
// (FoldChunks: sum, min or max over whole chunks or under selection
// masks) and the predicate-mask kernels (CmpMaskChunks, ...), mirroring
// the bitpack kernels, which is what lets core.SmartArray and the
// colstore scan pipeline dispatch over the codec instead of assuming bit
// packing. The encoded forms build on the bitpack
// codec: dictionary IDs, run values, deltas, and residuals are themselves
// bit-packed at their minimum widths. Every section of an encoding lives
// in one word slice (PayloadWords), so a placed array can copy the payload
// into each replica of its region and Bind one codec per replica.
package encoding

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"smartarrays/internal/bitpack"
)

// Kind identifies an encoding technique.
type Kind int

const (
	// Plain is uncompressed 64-bit storage.
	Plain Kind = iota
	// BitPacked is the paper's §4.2 bit compression at minimum width.
	BitPacked
	// Dict is dictionary encoding: distinct values in a sorted
	// dictionary, elements stored as bit-packed dictionary IDs.
	Dict
	// RLE is run-length encoding: (value, length) pairs, both
	// bit-packed, with a sparse index for random access.
	RLE
	// Delta stores each chunk as a bit-packed first value plus zigzag
	// deltas between neighbours — tiny widths for sorted or
	// slowly-varying data, with all-zero-delta chunks detected and
	// folded in O(1).
	Delta
	// FoR is frame-of-reference encoding: a single reference (the
	// minimum) plus bit-packed residuals — bit packing for value ranges
	// that are narrow but far from zero.
	FoR
)

// Kinds lists every encoding technique in selection order.
var Kinds = []Kind{Plain, BitPacked, Dict, RLE, Delta, FoR}

// String names the encoding.
func (k Kind) String() string {
	switch k {
	case Plain:
		return "plain"
	case BitPacked:
		return "bitpacked"
	case Dict:
		return "dictionary"
	case RLE:
		return "rle"
	case Delta:
		return "delta"
	case FoR:
		return "for"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Encoded is the common read interface over an encoded array.
type Encoded interface {
	// Kind identifies the technique.
	Kind() Kind
	// Length is the element count.
	Length() uint64
	// Get returns the element at index.
	Get(index uint64) uint64
	// PayloadBytes is the storage footprint of the encoded form.
	PayloadBytes() uint64
}

// payload is what every encoding shares: the one word slice all of its
// sections are laid out in, and the element count. Metadata that is not
// payload (widths, FoR's reference, counts) rides in the codec value.
type payload struct {
	words  []uint64
	length uint64
}

// Length is the element count.
func (p *payload) Length() uint64 { return p.length }

// PayloadBytes is the storage footprint: every section's words.
func (p *payload) PayloadBytes() uint64 { return uint64(len(p.words)) * 8 }

// PayloadWords is the word slice every section lives in.
func (p *payload) PayloadWords() []uint64 { return p.words }

// WordRange maps elements [lo, hi) to a payload-proportional word span,
// at least one word wide — the traffic estimate for layouts whose words
// do not map to elements one-to-one.
func (p *payload) WordRange(lo, hi uint64) (loWord, hiWord uint64) {
	if lo >= hi {
		return 0, 0
	}
	words := uint64(len(p.words))
	loWord, hiWord = lo*words/p.length, hi*words/p.length
	if hiWord <= loWord {
		hiWord = loWord + 1
	}
	return loWord, hiWord
}

// PlainArray stores the values uncompressed (the baseline): §4.2 bit
// compression at 64 bits, so every kernel is BitPacked's 64-bit one. Only
// the kind differs, and it survives re-binding.
type PlainArray struct{ BitPackedArray }

// NewPlain copies values into a plain encoding.
func NewPlain(values []uint64) *PlainArray {
	return &PlainArray{*NewBitPackedAt(64, values)}
}

// Kind identifies the technique.
func (p *PlainArray) Kind() Kind { return Plain }

// Bind returns the encoding reading its payload from words.
func (p *PlainArray) Bind(words []uint64) ChunkCodec {
	return &PlainArray{p.at(words)}
}

// BitPackedArray is §4.2 bit compression: every element at one width,
// packed across the words in 64-element chunks.
type BitPackedArray struct {
	payload
	codec bitpack.Codec
}

// NewBitPacked packs values at the minimum width for their maximum.
func NewBitPacked(values []uint64) *BitPackedArray {
	return NewBitPackedAt(bitpack.MinBitsFor(values), values)
}

// NewBitPackedAt packs values at width bits; every value must fit.
func NewBitPackedAt(bits uint, values []uint64) *BitPackedArray {
	codec := bitpack.MustNew(bits)
	return BitPackedOn(codec, codec.PackSlice(values), uint64(len(values)))
}

// BitPackedOn reads n elements packed by codec from words, which hold
// codec.WordsFor(n) of them — how a placed array binds the zeroed replica
// it is allocated with.
func BitPackedOn(codec bitpack.Codec, words []uint64, n uint64) *BitPackedArray {
	return &BitPackedArray{payload{words, n}, codec}
}

// Kind identifies the technique.
func (b *BitPackedArray) Kind() Kind { return BitPacked }

// Get returns the element at index.
func (b *BitPackedArray) Get(index uint64) uint64 { return b.codec.Get(b.words, index) }

// Bits is the packed width.
func (b *BitPackedArray) Bits() uint { return b.codec.Bits() }

// Bind returns the encoding reading its payload from words.
func (b *BitPackedArray) Bind(words []uint64) ChunkCodec {
	c := b.at(words)
	return &c
}

// at is the section reading the front of words, as long as this one.
func (b *BitPackedArray) at(words []uint64) BitPackedArray {
	c := *b
	c.words = words[:len(b.words)]
	return c
}

// DictArray stores each element as a bit-packed ID into a sorted
// dictionary of the distinct values — the standard column-store encoding
// the paper cites (§4.2's related work). It shines when the number of
// distinct values is small relative to their magnitudes. The payload is
// the packed IDs followed by the dictionary.
type DictArray struct {
	payload
	ids  BitPackedArray
	dict []uint64
}

// NewDict builds a dictionary encoding of values.
func NewDict(values []uint64) *DictArray {
	distinct := map[uint64]struct{}{}
	for _, v := range values {
		distinct[v] = struct{}{}
	}
	dict := make([]uint64, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	idOf := make(map[uint64]uint64, len(dict))
	for i, v := range dict {
		idOf[v] = uint64(i)
	}
	ids := make([]uint64, len(values))
	for i, v := range values {
		ids[i] = idOf[v]
	}
	d := &DictArray{payload: payload{length: uint64(len(values))}, ids: *NewBitPacked(ids)}
	return d.Bind(slices.Concat(d.ids.words, dict)).(*DictArray)
}

// Kind identifies the technique.
func (d *DictArray) Kind() Kind { return Dict }

// Get returns the element at index (ID lookup then dictionary fetch).
func (d *DictArray) Get(index uint64) uint64 { return d.dict[d.ids.Get(index)] }

// Bind returns the encoding reading its payload from words.
func (d *DictArray) Bind(words []uint64) ChunkCodec {
	c := *d
	c.words, c.ids = words, d.ids.at(words)
	c.dict = words[len(c.ids.words):]
	return &c
}

// rleIndexStride is how many runs share one sparse-index entry; random
// access binary-searches the index then walks at most a stride of runs.
const rleIndexStride = 32

// RLEArray stores (value, runLength) pairs with a sparse prefix index for
// random access. It wins on long runs (sorted or low-cardinality
// clustered data). The payload is the packed run values, then the packed
// run lengths, then the index.
type RLEArray struct {
	payload
	values  BitPackedArray // run values
	lengths BitPackedArray // run lengths
	// index[k] is the element offset of run k*rleIndexStride.
	index []uint64
	runs  uint64
}

// NewRLE builds a run-length encoding of values.
func NewRLE(values []uint64) *RLEArray {
	var runVals, runLens, index []uint64
	var offset uint64
	for i := 0; i < len(values); {
		j := i
		for j < len(values) && values[j] == values[i] {
			j++
		}
		if len(runVals)%rleIndexStride == 0 {
			index = append(index, offset)
		}
		runVals = append(runVals, values[i])
		runLens = append(runLens, uint64(j-i))
		offset += uint64(j - i)
		i = j
	}
	r := &RLEArray{
		payload: payload{length: uint64(len(values))},
		values:  *NewBitPacked(runVals),
		lengths: *NewBitPacked(runLens),
		runs:    uint64(len(runVals)),
	}
	return r.Bind(slices.Concat(r.values.words, r.lengths.words, index)).(*RLEArray)
}

// Kind identifies the technique.
func (r *RLEArray) Kind() Kind { return RLE }

// Bind returns the encoding reading its payload from words.
func (r *RLEArray) Bind(words []uint64) ChunkCodec {
	c := *r
	c.words, c.values = words, r.values.at(words)
	c.lengths = r.lengths.at(words[len(c.values.words):])
	c.index = words[len(c.values.words)+len(c.lengths.words):]
	return &c
}

// seekRun locates the run containing element index: binary search the
// sparse index for the last entry with offset <= index, then walk at most
// a stride of runs. Returns the run number and the element offset at
// which that run starts. The caller guarantees index < r.length.
func (r *RLEArray) seekRun(index uint64) (run, start uint64) {
	lo, hi := 0, len(r.index)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.index[mid] <= index {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	run = uint64(lo) * rleIndexStride
	start = r.index[lo]
	for {
		n := r.lengths.Get(run)
		if index < start+n {
			return run, start
		}
		start += n
		run++
	}
}

// Get returns the element at index: binary search the sparse index, then
// walk runs within the stride.
func (r *RLEArray) Get(index uint64) uint64 {
	if index >= r.length {
		panic(fmt.Sprintf("encoding: index %d out of range [0,%d)", index, r.length))
	}
	run, _ := r.seekRun(index)
	return r.values.Get(run)
}

// Decode materializes any encoding back to a plain slice, chunk by chunk
// through DecodeChunk — except RLE, which fills the runs in one linear
// walk, O(n + runs).
func Decode(cc ChunkCodec) []uint64 {
	n := cc.Length()
	out := make([]uint64, n)
	if r, ok := cc.(*RLEArray); ok {
		pos := uint64(0)
		for run := uint64(0); run < r.runs; run++ {
			v, end := r.values.Get(run), pos+r.lengths.Get(run)
			for ; pos < end; pos++ {
				out[pos] = v
			}
		}
		return out
	}
	var buf [bitpack.ChunkSize]uint64
	for c := uint64(0); c*bitpack.ChunkSize < n; c++ {
		cc.DecodeChunk(c, &buf)
		copy(out[c*bitpack.ChunkSize:], buf[:])
	}
	return out
}

// Build constructs the requested encoding of values.
func Build(kind Kind, values []uint64) (Encoded, error) {
	switch kind {
	case Plain:
		return NewPlain(values), nil
	case BitPacked:
		return NewBitPacked(values), nil
	case Dict:
		return NewDict(values), nil
	case RLE:
		return NewRLE(values), nil
	case Delta:
		return NewDelta(values), nil
	case FoR:
		return NewFoR(values), nil
	default:
		return nil, fmt.Errorf("encoding: unknown kind %v", kind)
	}
}

// Select picks the encoding of values with the smallest payload — the
// paper's envisioned dynamic selection of the compression technique
// (§4.2, §7) — and constructs only the winner. Payloads are computed
// exactly from one Analyze pass over the input (min bits, distinct count,
// run count, delta widths), so selection no longer materializes every
// candidate at full size. The baseline plain encoding wins only if
// nothing beats it; ties go to the earlier candidate in Kinds order.
func Select(values []uint64) (Encoded, error) {
	if len(values) == 0 {
		return nil, errors.New("encoding: empty input")
	}
	stats := Analyze(values)
	best := Kinds[0]
	bestBytes := EstimatePayloadBytes(best, stats)
	for _, k := range Kinds[1:] {
		if b := EstimatePayloadBytes(k, stats); b < bestBytes {
			best, bestBytes = k, b
		}
	}
	return Build(best, values)
}
