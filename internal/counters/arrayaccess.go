package counters

// Per-array access accounting: the worker-local half of the array
// telemetry subsystem. Each Shard optionally carries a map from smart-array
// ID to an ArrayAccess accumulator; the array's Account* hooks bump the
// accumulator with plain adds on the owning worker's goroutine, and the RTS
// folds (drains) every shard's accumulators into the shared
// obs.ArrayRegistry once per parallel loop. The hot path therefore never
// touches shared state, preserving the fabric's owner-only-writes
// invariant, and a shard with profiling disabled costs one nil-map check
// per Account* call.

// ArrayAccess accumulates one worker's accesses to one smart array between
// folds. Op counts tally Account* invocations (one per loop batch); Elems
// counts tally the elements those invocations covered, split by access
// method so consumers can derive the chunk-decode vs per-element-Get ratio
// and the random share the adaptivity diagrams key on.
type ArrayAccess struct {
	// Scans/Streams/Reduces/Gathers/Gets/Inits count accounting calls by
	// access method (sequential iterator scan, chunk-streamed decode,
	// fused reduce, batched gather, per-element random get, replica init).
	Scans, Streams, Reduces, Gathers, Gets, Inits uint64
	// ScanElems..InitElems are the element counts behind those calls.
	ScanElems, StreamElems, ReduceElems, GatherElems, GetElems, InitElems uint64
	// LocalBytes/RemoteBytes split the array's accounted traffic (reads
	// and writes) by whether it crossed a socket boundary, as observed by
	// this worker's shard.
	LocalBytes, RemoteBytes uint64
	// PredEvals/PredHits count predicate evaluations over the array's
	// elements and how many matched — observed selectivity.
	PredEvals, PredHits uint64
}

// Add folds o into a (for registry-side aggregation).
func (a *ArrayAccess) Add(o *ArrayAccess) {
	a.Scans += o.Scans
	a.Streams += o.Streams
	a.Reduces += o.Reduces
	a.Gathers += o.Gathers
	a.Gets += o.Gets
	a.Inits += o.Inits
	a.ScanElems += o.ScanElems
	a.StreamElems += o.StreamElems
	a.ReduceElems += o.ReduceElems
	a.GatherElems += o.GatherElems
	a.GetElems += o.GetElems
	a.InitElems += o.InitElems
	a.LocalBytes += o.LocalBytes
	a.RemoteBytes += o.RemoteBytes
	a.PredEvals += o.PredEvals
	a.PredHits += o.PredHits
}

// EnableArrayProfiling turns on per-array accumulation for this shard.
// Like all Shard mutation it must happen while the owning worker is idle.
func (s *Shard) EnableArrayProfiling() {
	if s.arrays == nil {
		s.arrays = make(map[uint64]*ArrayAccess)
	}
}

// DisableArrayProfiling drops the shard's per-array state.
func (s *Shard) DisableArrayProfiling() { s.arrays = nil }

// Array returns the accumulator for array id, or nil when profiling is
// disabled — callers guard their telemetry block on the nil result, which
// keeps the disabled path to a single map-nil check.
func (s *Shard) Array(id uint64) *ArrayAccess {
	if s.arrays == nil {
		return nil
	}
	aa := s.arrays[id]
	if aa == nil {
		aa = &ArrayAccess{}
		s.arrays[id] = aa
	}
	return aa
}

// DrainArrays invokes fn for every array the shard touched since the last
// drain, then clears the accumulators. The fold side (obs.ArrayRegistry)
// runs after the parallel phase joins, so the owner-only-writes invariant
// holds: the worker is quiescent while its shard drains.
func (s *Shard) DrainArrays(fn func(id uint64, acc *ArrayAccess)) {
	if len(s.arrays) == 0 {
		return
	}
	for id, aa := range s.arrays {
		fn(id, aa)
		delete(s.arrays, id)
	}
}
