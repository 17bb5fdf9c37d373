package bench

import (
	"sync/atomic"

	"smartarrays/internal/adapt"
	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// Live adaptivity end-to-end: a workload whose access pattern shifts
// mid-run. Phase A scans the array linearly — the §6 profiler measures a
// memory-bound streaming workload and (with compressed replicas fitting)
// picks a compressed configuration. Phase B switches to random gathers:
// the per-array telemetry registry watches the random share climb, and
// once it crosses the significance threshold the adapt.Monitor's re-walk
// of Figure 13b rejects compression ("random accesses load extra words"),
// flipping the decision and emitting a DecisionDrift audit event. The
// driver then migrates the array to the live pick — §6's on-the-fly
// adaptation closed into a loop the one-shot profiler cannot express.

// LiveConfig scales the drifting-workload run.
type LiveConfig struct {
	// Machine defaults to the small Table 1 machine.
	Machine *machine.Spec
	// Elements is the array length for the real run (default 1<<18).
	Elements uint64
	// Bits is the compression width the policy may choose (default 10).
	Bits uint
	// ScanPasses is Phase A's linear reduction count (default 3).
	ScanPasses int
	// GatherLoops is Phase B's gather-loop count (default 6); each loop
	// gathers Elements/8 random indices and re-scores the decision.
	GatherLoops int
	// Recorder receives decision, drift, loop, and span events (may be
	// nil).
	Recorder *obs.Recorder
	// Arrays is the telemetry registry to use; nil allocates a private
	// one. Callers serving /arrays pass their own so the run is visible.
	Arrays *obs.ArrayRegistry
}

// LiveReport summarizes a drifting-workload run.
type LiveReport struct {
	Machine  string
	Elements uint64
	Bits     uint
	// Initial is the §6 pick from the Phase A profile; Final the monitor's
	// pick after Phase B.
	Initial, Final adapt.Candidate
	// Checks and Drifts count monitor re-scores and emitted flips;
	// DriftCheck is the 1-based check index of the first flip (0 = none).
	Checks, Drifts, DriftCheck int
	// MigratedBytes is the traffic of adapting the array to the final
	// pick (0 when the placement did not change).
	MigratedBytes uint64
	// Profile is the array's final telemetry profile.
	Profile obs.AccessProfile
	// Verified reports that both phases computed correct sums.
	Verified bool
}

// RunLiveAdaptivity executes the drifting workload and returns the run
// summary. At least one DecisionDrift event is recorded when the live
// profile diverges from the initial decision (the default configuration
// guarantees the divergence).
func RunLiveAdaptivity(cfg LiveConfig) LiveReport {
	if cfg.Machine == nil {
		cfg.Machine = machine.X52Small()
	}
	if cfg.Elements == 0 {
		cfg.Elements = 1 << 18
	}
	if cfg.Bits == 0 {
		cfg.Bits = 10
	}
	if cfg.ScanPasses == 0 {
		cfg.ScanPasses = 3
	}
	if cfg.GatherLoops == 0 {
		cfg.GatherLoops = 6
	}
	spec, n, bits, rec := cfg.Machine, cfg.Elements, cfg.Bits, cfg.Recorder

	rt := rts.New(spec)
	reg := cfg.Arrays
	if reg == nil {
		reg = obs.NewArrayRegistry()
	}
	rt.SetArrayProfiling(reg)
	rt.SetRecorder(rec)

	span := rec.StartSpan("live.run")
	defer span.End()

	a, err := core.Allocate(rt.Memory(), core.Config{
		Length: n, Bits: bits, Placement: memsim.Interleaved, Name: "live-hot",
	})
	if err != nil {
		panic(err)
	}
	defer a.Free()

	// Init values cycle through the width's range; the default grain is a
	// multiple of the chunk size, so parallel batches touch disjoint words.
	mask := uint64(1)<<bits - 1
	init := span.Child("live.init")
	rt.ParallelFor(0, n, 0, func(w *rts.Worker, lo, hi uint64) {
		fillRange(a, w.Socket, lo, hi, func(i uint64) uint64 { return i & mask })
		a.AccountInit(w.Counters, lo, hi)
	})
	init.End()

	// Phase A: linear reductions with a selectivity-~50% predicate riding
	// along, so the live profile also carries observed selectivity: each
	// pass reports its hits once, after the loop.
	threshold := mask / 2
	scan := span.Child("live.scan")
	var scanSum uint64
	var hits atomic.Uint64
	for p := 0; p < cfg.ScanPasses; p++ {
		scanSum = rt.ReduceSum(0, n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			replica := a.GetReplica(w.Socket)
			var s, h uint64
			for i := lo; i < hi; i++ {
				v := a.Get(replica, i)
				s += v
				if v > threshold {
					h++
				}
			}
			a.AccountReduce(w.Counters, lo, hi)
			hits.Add(h)
			return s
		})
		a.AccountPredicate(n, hits.Swap(0))
	}
	scan.End()

	// The initial §6 decision, from the Phase A pattern modeled at paper
	// scale (the one-shot profiler's view: pure linear streaming).
	paperN := float64(PaperAggElements)
	passes := float64(cfg.ScanPasses)
	meas := perfmodel.Solve(spec, perfmodel.Workload{
		Instructions: passes * paperN * perfmodel.CostReduce(64),
		Streams: []perfmodel.Stream{
			{Kind: perfmodel.Read, Bytes: passes * paperN * 8, Placement: memsim.Interleaved},
		},
	})
	traits := adapt.Traits{
		ReadOnly:                         true,
		MostlyReads:                      true,
		MultipleLinearAccessesPerElement: true,
	}
	base := adapt.ProfileFromResult(spec, meas, adapt.ProfileOpts{
		Accesses:         passes * paperN,
		CompressedBits:   bits,
		UncompressedBits: 64,
		// Only compressed replicas fit — the regime where compression both
		// shrinks the stream and unlocks replication (Figure 13's space
		// tests diverge).
		SpaceUncompressedRepl: false,
		SpaceCompressedRepl:   true,
	})
	initial, decision := adapt.DecideExplained(spec, traits, base, "live-adaptivity")
	rec.RecordDecision(decision)
	mon := adapt.NewMonitor(adapt.MonitorConfig{
		Spec: spec, Traits: traits, Base: base, Initial: initial,
		Name: "live-adaptivity", CompressedBits: bits, UncompressedBits: 64,
	})

	// Phase B: gather loops over a deterministic pseudo-random index
	// vector. Each loop covers n/8 indices, so the gathered total stays
	// under one full pass — random accesses are significant but not
	// repeated per element, exactly Figure 13b's "No Compression" branch.
	m := n / 8
	if m == 0 {
		m = 1
	}
	idx := make([]uint64, m)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range idx {
		x = x*6364136223846793005 + 1442695040888963407
		idx[i] = x % n
	}
	gather := span.Child("live.gather")
	driftCheck := 0
	var gatherSum uint64
	for loop := 0; loop < cfg.GatherLoops; loop++ {
		gatherSum = rt.ReduceSum(0, m, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			out := make([]uint64, hi-lo)
			v := a.View(w.Socket)
			v.Gather(idx[lo:hi], out)
			a.AccountGather(w.Counters, hi-lo, 1)
			var s uint64
			for _, v := range out {
				s += v
			}
			return s
		})
		if p, ok := reg.Profile(a.TelemetryID()); ok {
			if _, drift := mon.Check(p); drift != nil {
				rec.RecordDrift(*drift)
				if driftCheck == 0 {
					driftCheck = loop + 1
				}
			}
		}
	}
	gather.End()

	// Adapt the array to the live pick (§6's on-the-fly migration). A
	// compression flip alone keeps the placement; only placement changes
	// move pages.
	final := mon.Current()
	var migrated uint64
	if final.Placement != a.Placement() {
		if b, err := a.Migrate(final.Placement, final.Socket); err == nil {
			migrated = b
		}
	}

	// Verify both phases against plain references.
	var scanRef, gatherRef uint64
	for i := uint64(0); i < n; i++ {
		scanRef += i & mask
	}
	for _, ix := range idx {
		gatherRef += ix & mask
	}

	profile, _ := reg.Profile(a.TelemetryID())
	return LiveReport{
		Machine:       spec.Name,
		Elements:      n,
		Bits:          bits,
		Initial:       initial,
		Final:         final,
		Checks:        cfg.GatherLoops,
		Drifts:        mon.Drifts(),
		DriftCheck:    driftCheck,
		MigratedBytes: migrated,
		Profile:       profile,
		Verified:      scanSum == scanRef && gatherSum == gatherRef,
	}
}
