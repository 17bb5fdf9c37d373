// Per-array access telemetry: every smart array registers itself at
// construction with the obs.ArrayRegistry attached to the memory it is
// allocated from (rts.Runtime.SetArrayProfiling attaches one) and keeps
// the obs.ArrayCounters block it gets back. The bench drivers' hooks
// (AccountScan/Reduce/Init/Gather) add elements and the traffic they
// charged to that block from the loop body; AccountPredicate adds a whole
// pass's predicate totals (colstore's scan: from its per-worker rows)
// after the loop. Every add is atomic and lock-free; nothing is folded or
// drained later.
//
// The nil-registry configuration is the default and costs nothing beyond
// one nil check per accounting call.
package core

import (
	"smartarrays/internal/counters"
	"smartarrays/internal/obs"
)

// TelemetryID is the array's registry ID (0 when its memory had no
// registry attached at allocation).
func (a *SmartArray) TelemetryID() uint64 { return a.tel.ID() }

// register runs at allocation: record the array's identity and take its
// counter block when the array's memory has a registry attached.
func (a *SmartArray) register(name string) {
	a.reg = a.mem.ArrayRegistry()
	a.tel = a.reg.Register(name, a.codec.Bits(), a.length, a.rep.Load().region.Placement().String())
}

// accTrack captures the shard's local and remote byte totals before an
// accounting call so the per-array delta can be attributed afterwards.
// The zero accTrack (telemetry off) makes done a no-op.
type accTrack struct {
	tel           *obs.ArrayCounters
	local, remote uint64
}

// track begins per-array attribution for one accounting call. Returns the
// zero tracker when the array is unregistered — the only overhead of
// disabled telemetry.
func (a *SmartArray) track(sh *counters.Shard) accTrack {
	if a.tel == nil {
		return accTrack{}
	}
	return accTrack{tel: a.tel,
		local:  sh.LocalReadBytes + sh.LocalWriteBytes,
		remote: sh.RemoteReadBytes + sh.RemoteWriteBytes}
}

// done adds the call's n elements, accessed through method m, and the
// bytes it just charged to the array's counter block.
func (t accTrack) done(sh *counters.Shard, m obs.AccessMethod, n uint64) {
	if t.tel == nil {
		return
	}
	t.tel.Add(m, n, sh.LocalReadBytes+sh.LocalWriteBytes-t.local, sh.RemoteReadBytes+sh.RemoteWriteBytes-t.remote)
}

// AccountPredicate adds one pass's predicate evaluations over the array
// to its counter block: evals elements tested, hits selected — the
// observed selectivity orderPreds and the live adaptivity re-scorer
// consume. Lock-free atomic adds, so it may run anywhere. It charges no
// traffic or instructions (the enclosing scan accounting already did),
// records nothing for a pass that evaluated nothing, and is free when
// telemetry is off.
func (a *SmartArray) AccountPredicate(evals, hits uint64) {
	if a.tel == nil || evals == 0 {
		return
	}
	a.tel.AddPredicate(evals, hits)
}

// ObservedSelectivity reads the array's accumulated predicate selectivity
// (hits per evaluated element) from its counter block without a lock. ok
// is false when telemetry is off or no predicate has been accounted yet —
// consumers ordering predicates fall back to a neutral estimate.
func (a *SmartArray) ObservedSelectivity() (sel float64, ok bool) {
	acc, _ := a.tel.Load()
	return acc.Selectivity()
}
