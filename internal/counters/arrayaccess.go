package counters

// Per-array access accounting: the worker-local half of the array
// telemetry subsystem. Each Shard carries a map from smart-array ID to an
// ArrayAccess accumulator; the array's AccountScan/Reduce/Init/Gather hooks
// (called by the bench drivers) bump the accumulator with plain adds on
// the owning worker's goroutine, and the RTS folds (drains) every shard's
// accumulators into the shared obs.ArrayRegistry once per parallel loop.
// The hot path therefore never touches shared state, preserving the
// fabric's owner-only-writes invariant. Only registered arrays (non-zero
// ID) reach a shard, so with telemetry off the map is never created.

// ArrayAccess accumulates one worker's accesses to one smart array between
// folds. Op counts tally Account* invocations (one per loop batch); Elems
// counts tally the elements those invocations covered, split by access
// method so consumers can derive the chunk-decode vs random ratio the
// adaptivity diagrams key on.
type ArrayAccess struct {
	// Scans/Reduces/Gathers/Inits count accounting calls by access method
	// (sequential iterator scan, fused reduce, batched gather, replica
	// init).
	Scans, Reduces, Gathers, Inits uint64
	// ScanElems..InitElems are the element counts behind those calls.
	ScanElems, ReduceElems, GatherElems, InitElems uint64
	// LocalBytes/RemoteBytes split the array's accounted traffic (reads
	// and writes) by whether it crossed a socket boundary, as observed by
	// this worker's shard.
	LocalBytes, RemoteBytes uint64
	// PredEvals/PredHits count predicate evaluations over the array's
	// elements and how many matched — observed selectivity. They reach
	// the registry only through AccountPredicate, never a shard.
	PredEvals, PredHits uint64
}

// Add folds o into a (for registry-side aggregation).
func (a *ArrayAccess) Add(o *ArrayAccess) {
	a.Scans += o.Scans
	a.Reduces += o.Reduces
	a.Gathers += o.Gathers
	a.Inits += o.Inits
	a.ScanElems += o.ScanElems
	a.ReduceElems += o.ReduceElems
	a.GatherElems += o.GatherElems
	a.InitElems += o.InitElems
	a.LocalBytes += o.LocalBytes
	a.RemoteBytes += o.RemoteBytes
	a.PredEvals += o.PredEvals
	a.PredHits += o.PredHits
}

// Array returns the accumulator for array id, creating it (and the map)
// on first use. Callers pass only registered IDs: an array has one only
// when its memory carries a registry, so a shard of an unprofiled runtime
// never allocates here.
func (s *Shard) Array(id uint64) *ArrayAccess {
	if s.arrays == nil {
		s.arrays = make(map[uint64]*ArrayAccess)
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
