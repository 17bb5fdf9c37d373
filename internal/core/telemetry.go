// Per-array access telemetry: every smart array registers itself at
// construction with the obs.ArrayRegistry attached to the memory it is
// allocated from (rts.Runtime.SetArrayProfiling attaches one). The bench
// drivers' hooks (AccountScan/Reduce/Init/Gather) attribute elements and
// traffic through worker-local counters.ArrayAccess shards, which the RTS
// folds into the registry once per parallel loop; AccountPredicate folds a
// whole pass's predicate totals (colstore's scan: from its per-worker
// rows) straight into the registry, after the loop.
//
// The nil-registry configuration is the default and costs nothing beyond
// one `a.id == 0` check per accounting call.
package core

import "smartarrays/internal/counters"

// TelemetryID is the array's registry ID (0 when its memory had no
// registry attached at allocation).
func (a *SmartArray) TelemetryID() uint64 { return a.id }

// register runs at allocation: assign an ID and record the array's
// identity when the array's memory has a registry attached.
func (a *SmartArray) register(name string) {
	reg := a.mem.ArrayRegistry()
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
// zero tracker when the array is unregistered — the only overhead of
// disabled telemetry.
func (a *SmartArray) track(sh *counters.Shard) accTrack {
	if a.id == 0 {
		return accTrack{}
	}
	return accTrack{aa: sh.Array(a.id),
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

// AccountPredicate folds one pass's predicate evaluations over the array
// into its access profile: evals elements tested, hits selected — the
// observed selectivity orderPreds and the live adaptivity re-scorer
// consume. It takes the registry lock, so call it after the loop, never
// from a loop body. It charges no traffic or instructions (the enclosing
// scan accounting already did), records nothing for a pass that evaluated
// nothing, and is free when telemetry is off.
func (a *SmartArray) AccountPredicate(evals, hits uint64) {
	if a.id == 0 || evals == 0 {
		return
	}
	a.reg.Fold(a.id, &counters.ArrayAccess{PredEvals: evals, PredHits: hits})
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
