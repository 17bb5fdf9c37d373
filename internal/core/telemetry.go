// Per-array access telemetry: every smart array registers itself with the
// process's obs.ArrayRegistry at construction (when one is attached), and
// the existing counter-accounting hooks (AccountScan/Reduce/Init/Gather)
// additionally attribute their elements and traffic to the array through
// the worker-local counters.ArrayAccess shards. The RTS folds those shards into the registry once per parallel
// loop, so the hot path never touches shared state.
//
// The nil-registry configuration is the default and costs nothing beyond
// one `a.id == 0` check per accounting call; with a registry attached but
// shard profiling off, the extra cost is one nil-map check.
package core

import (
	"sync/atomic"

	"smartarrays/internal/counters"
	"smartarrays/internal/obs"
)

// arrayRegistry is the registry new arrays register with. Process-global
// because allocation sites (graph builders, colstore, workloads) share one
// runtime per process; tests swap it atomically.
var arrayRegistry atomic.Pointer[obs.ArrayRegistry]

// SetArrayRegistry attaches the registry subsequently allocated arrays
// register with (nil detaches). Existing arrays keep their registration.
// Pair with rts.Runtime.SetArrayProfiling, which enables the worker-shard
// accumulation and the per-loop folds.
func SetArrayRegistry(r *obs.ArrayRegistry) {
	arrayRegistry.Store(r)
}

// ActiveArrayRegistry returns the currently attached registry (nil when
// telemetry is off).
func ActiveArrayRegistry() *obs.ArrayRegistry {
	return arrayRegistry.Load()
}

// TelemetryID is the array's registry ID (0 when allocated without a
// registry attached).
func (a *SmartArray) TelemetryID() uint64 { return a.id }

// register runs at allocation: assign an ID and record the array's
// identity when a registry is attached.
func (a *SmartArray) register(name string) {
	reg := arrayRegistry.Load()
	if reg == nil {
		return
	}
	a.reg = reg
	a.id = reg.Register(name, a.codec.Bits(), a.length, a.rep.Load().region.Placement().String())
}

// track captures the shard's byte counters before an accounting call so
// the per-array delta can be attributed afterwards. The zero accTrack
// (telemetry off) makes done a no-op.
type accTrack struct {
	aa             *counters.ArrayAccess
	lr, rr, lw, rw uint64
}

// track begins per-array attribution for one accounting call. Returns the
// zero tracker when the array is unregistered or the shard's profiling is
// off — the only overhead of disabled telemetry.
func (a *SmartArray) track(sh *counters.Shard) accTrack {
	if a.id == 0 {
		return accTrack{}
	}
	aa := sh.Array(a.id)
	if aa == nil {
		return accTrack{}
	}
	return accTrack{aa: aa,
		lr: sh.LocalReadBytes, rr: sh.RemoteReadBytes,
		lw: sh.LocalWriteBytes, rw: sh.RemoteWriteBytes}
}

// done attributes the bytes the accounting call just charged and returns
// the accumulator for method-specific counts (nil when telemetry is off).
func (t accTrack) done(sh *counters.Shard) *counters.ArrayAccess {
	if t.aa == nil {
		return nil
	}
	t.aa.LocalBytes += (sh.LocalReadBytes - t.lr) + (sh.LocalWriteBytes - t.lw)
	t.aa.RemoteBytes += (sh.RemoteReadBytes - t.rr) + (sh.RemoteWriteBytes - t.rw)
	return t.aa
}

// AccountPredicate records a predicate evaluation over the array: evals
// elements tested, hits selected — the observed selectivity the live
// adaptivity re-scorer consumes. It charges no traffic or instructions
// (the enclosing scan accounting already did) and is free when telemetry
// is off.
func (a *SmartArray) AccountPredicate(sh *counters.Shard, evals, hits uint64) {
	if a.id == 0 {
		return
	}
	if aa := sh.Array(a.id); aa != nil {
		aa.PredEvals += evals
		aa.PredHits += hits
	}
}

// ObservedSelectivity reads the array's accumulated predicate selectivity
// (hits per evaluated element) back out of its access profile. ok is
// false when telemetry is off or no predicate has been accounted yet —
// consumers ordering predicates fall back to a neutral estimate.
func (a *SmartArray) ObservedSelectivity() (sel float64, ok bool) {
	if a.id == 0 || a.reg == nil {
		return 0, false
	}
	p, ok := a.reg.Profile(a.id)
	if !ok {
		return 0, false
	}
	return p.Selectivity()
}
