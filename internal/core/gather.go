package core

import (
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/counters"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// Batched random access and range reads: the graph-analytics entry points
// over smart arrays. A CSR traversal touches its arrays two ways —
// contiguous edge runs (read) and index-vector lookups of per-vertex state
// (gather). Each is one View method that validates once per batch and
// hands the whole vector or range to the bound codec's batched kernels
// (bitpack's, for bit-packed arrays); the package-level Gather and
// ReadRange pin, take a View and call it.

// Gather decodes out[i] = element idx[i] for a reader on socket:
// View.Gather under a pin of its own.
func Gather(a *SmartArray, socket int, idx []uint64, out []uint64) {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	v.Gather(idx, out)
}

// ReadRange decodes elements [lo, hi) into out for a reader on socket:
// View.Read under a pin of its own.
func ReadRange(a *SmartArray, socket int, lo, hi uint64, out []uint64) {
	a.mem.Pin()
	defer a.mem.Unpin()
	v := a.View(socket)
	v.Read(lo, hi, out)
}

// Gather decodes out[i] = element idx[i] of the snapshot. Indices may
// repeat and appear in any order; the whole vector is bounds-checked up
// front so the decode loops run unchecked. len(out) must be at least
// len(idx). It runs under the caller's pin.
func (v *View) Gather(idx, out []uint64) {
	for _, x := range idx {
		if x >= v.length {
			panic(fmt.Sprintf("core: gather index %d out of range [0,%d)", x, v.length))
		}
	}
	v.codec.Gather(idx, out)
}

// Read decodes elements [lo, hi) of the snapshot into out, for readers
// that want plain indexed access afterwards (CSR begin and edge runs).
// len(out) must be at least hi-lo. Whole chunks decode straight into out
// (the paper's Function 3); the ragged ends go per element, so a reader
// walking a long run in windows should start each window after the first
// on a chunk boundary. It runs under the caller's pin.
func (v *View) Read(lo, hi uint64, out []uint64) {
	if lo >= hi {
		return
	}
	checkRange(lo, hi, v.length)
	if uint64(len(out)) < hi-lo {
		panic(fmt.Sprintf("core: Read destination holds %d elements, need %d", len(out), hi-lo))
	}
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	for i := lo; i < headEnd; i++ {
		out[i-lo] = v.codec.Get(i)
	}
	for ch := chunkLo; ch < chunkHi; ch++ {
		v.codec.DecodeChunk(ch, (*[bitpack.ChunkSize]uint64)(out[ch*bitpack.ChunkSize-lo:]))
	}
	for i := tailStart; i < hi; i++ {
		out[i-lo] = v.codec.Get(i)
	}
}

// AccountGather charges n batched random element reads: amplified DRAM
// traffic (line fetches with an LLC hit credit, see
// perfmodel.RandomReadBytes) plus the batched per-element decode cost.
func (a *SmartArray) AccountGather(sh *counters.Shard, n uint64, localityBoost float64) {
	if n == 0 {
		return
	}
	rp := a.rep.Load()
	t := a.track(sh)
	payload := float64(rp.region.Words() * 8)
	eff := perfmodel.RandomReadBytes(payload, payload/float64(a.length), a.mem.Spec().LLCMB*1e6, localityBoost)
	rp.region.AccountRandom(sh, n, uint64(eff))
	sh.Access(n)
	sh.Instr(uint64(float64(n) * perfmodel.CostEncodedGather(rp.cost)))
	t.done(sh, obs.AccessGather, n)
}
