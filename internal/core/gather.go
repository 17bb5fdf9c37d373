package core

import (
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/counters"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// Batched random access and range streaming: the graph-analytics entry
// points over smart arrays. A CSR traversal touches its arrays two ways —
// contiguous edge runs (stream) and index-vector lookups of per-vertex
// state (gather) — and both were previously per-element Get calls. These
// wrappers validate once per batch and hand the whole vector or range to
// the bound codec's batched kernels (bitpack's, for bit-packed arrays).

// Gather decodes out[i] = element idx[i] for a reader on socket. Indices
// may repeat and appear in any order; the whole vector is bounds-checked
// up front so the decode loops run unchecked. len(out) must be at least
// len(idx).
func Gather(a *SmartArray, socket int, idx []uint64, out []uint64) {
	if len(idx) == 0 {
		return
	}
	a.mem.Pin()
	defer a.mem.Unpin()
	cc := a.View(socket).codec
	length := a.length
	for _, x := range idx {
		if x >= length {
			panic(fmt.Sprintf("core: gather index %d out of range [0,%d)", x, length))
		}
	}
	cc.Gather(idx, out)
}

// ReadRange decodes elements [lo, hi) into out for a reader on socket.
// len(out) must be at least hi-lo. It is StreamRange flattened into a
// caller-owned destination — for small per-batch scratch (CSR begin runs,
// weight runs) where the caller wants plain indexed access afterwards.
// Whole chunks decode straight into out; the ragged ends go per element.
func ReadRange(a *SmartArray, socket int, lo, hi uint64, out []uint64) {
	if lo >= hi {
		return
	}
	a.checkRange(lo, hi)
	if uint64(len(out)) < hi-lo {
		panic(fmt.Sprintf("core: ReadRange destination holds %d elements, need %d", len(out), hi-lo))
	}
	a.mem.Pin()
	defer a.mem.Unpin()
	cc := a.View(socket).codec
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	for i := lo; i < headEnd; i++ {
		out[i-lo] = cc.Get(i)
	}
	for ch := chunkLo; ch < chunkHi; ch++ {
		cc.DecodeChunk(ch, (*[bitpack.ChunkSize]uint64)(out[ch*bitpack.ChunkSize-lo:]))
	}
	for i := tailStart; i < hi; i++ {
		out[i-lo] = cc.Get(i)
	}
}

// StreamRange decodes elements [lo, hi) through buf for a reader on
// socket, invoking emit with decoded runs (see bitpack.UnpackRange for the
// emit contract: runs are in order, contiguous, at most len(buf) long, and
// vals is only valid during the call). buf must hold at least one chunk.
func StreamRange(a *SmartArray, socket int, lo, hi uint64, buf []uint64, emit func(base uint64, vals []uint64)) {
	if lo >= hi {
		return
	}
	a.checkRange(lo, hi)
	a.mem.Pin()
	defer a.mem.Unpin()
	a.View(socket).codec.UnpackRange(lo, hi, buf, emit)
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
