package bench

import (
	"smartarrays/internal/adapt"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// Live re-encoding end-to-end: the representation counterpart of the
// drifting-placement run in live.go. A clustered column (long equal-value
// runs) starts in the native bit-packed representation. Phase A hammers
// it with fused reductions — the per-array telemetry shows a pure
// chunk-decode mix, and the adapt.Reencoder's per-codec re-score picks
// RLE, whose folds cost O(runs) instead of O(elements); the array
// migrates in place. Phase B switches to random gathers: the random
// share climbs, RLE's per-access seek penalty inverts the pick, and the
// re-encoder migrates again — to the uncompressed representation the
// paper's Figure 13b "significant random accesses → No Compression"
// branch prescribes. Every phase's results are verified against plain
// references across the migrations.

// ReencodeConfig scales the representation-drift run.
type ReencodeConfig struct {
	// Machine defaults to the small Table 1 machine.
	Machine *machine.Spec
	// Elements is the array length (default 1<<17).
	Elements uint64
	// Bits is the native packed width (default 16).
	Bits uint
	// RunLen is the clustered run length (default 32).
	RunLen uint64
	// ScanPasses is Phase A's fused-reduction count (default 3).
	ScanPasses int
	// GatherLoops is Phase B's gather-loop count (default 6); each loop
	// gathers Elements random indices and re-scores the representation.
	GatherLoops int
	// Recorder receives reencode, loop, and span events (may be nil).
	Recorder *obs.Recorder
	// Arrays is the telemetry registry to use; nil allocates a private one.
	Arrays *obs.ArrayRegistry
}

// ReencodeReport summarizes a representation-drift run.
type ReencodeReport struct {
	Machine  string
	Elements uint64
	Bits     uint
	// Path is the sequence of representations the array moved through,
	// starting at the native one (e.g. bitpacked → rle → plain).
	Path []string
	// Events are the audit records of the migrations, in order.
	Events []obs.ReencodeEvent
	// GatherFlipLoop is the 1-based Phase B loop of the second migration
	// (0 = the random mix never flipped the pick).
	GatherFlipLoop int
	// TrafficBytes is the total migration traffic.
	TrafficBytes uint64
	// Profile is the array's final telemetry profile.
	Profile obs.AccessProfile
	// Verified reports that every phase computed correct sums across the
	// migrations.
	Verified bool
}

// RunLiveReencoding executes the representation-drift workload and
// returns the run summary. The default configuration guarantees both
// migrations: scan-heavy clustered data flips bit-packed → RLE, then the
// gather mix flips RLE → plain.
func RunLiveReencoding(cfg ReencodeConfig) ReencodeReport {
	if cfg.Machine == nil {
		cfg.Machine = machine.X52Small()
	}
	if cfg.Elements == 0 {
		cfg.Elements = 1 << 17
	}
	if cfg.Bits == 0 {
		cfg.Bits = 16
	}
	if cfg.RunLen == 0 {
		cfg.RunLen = 32
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

	span := rec.StartSpan("reencode.run")
	defer span.End()

	a, err := core.Allocate(rt.Memory(), core.Config{
		Length: n, Bits: bits, Placement: memsim.Interleaved, Name: "reencode-hot",
	})
	if err != nil {
		panic(err)
	}
	defer a.Free()

	// Clustered values: equal-value runs whose values come from a hash, so
	// runs are the only structure — the regime where RLE's run-skipping
	// folds shine but delta's constant-chunk and FoR's narrow-range fast
	// paths find nothing to exploit.
	mask := uint64(1)<<bits - 1
	value := func(i uint64) uint64 {
		h := (i/cfg.RunLen)*6364136223846793005 + 1442695040888963407
		h ^= h >> 31
		return h & mask
	}
	init := span.Child("reencode.init")
	rt.ParallelFor(0, n, 0, func(w *rts.Worker, lo, hi uint64) {
		fillRange(a, w.Socket, lo, hi, value)
		a.AccountInit(w.Counters, lo, hi)
	})
	init.End()

	var scanRef uint64
	for i := uint64(0); i < n; i++ {
		scanRef += value(i)
	}

	re := adapt.NewReencoder(adapt.ReencoderConfig{
		Name: "live-reencode", Arrays: reg, Recorder: rec,
	})
	re.Watch(a)

	report := ReencodeReport{
		Machine: spec.Name, Elements: n, Bits: bits,
		Path: []string{a.EncodingKind().String()},
	}
	verified := true
	record := func(events []obs.ReencodeEvent) {
		for _, ev := range events {
			report.Events = append(report.Events, ev)
			report.Path = append(report.Path, ev.To)
			report.TrafficBytes += ev.TrafficBytes
		}
	}

	// Phase A: fused reductions over the native representation, then the
	// first re-score — the pure chunk-decode mix picks RLE.
	sumPass := func() uint64 {
		return rt.ReduceSum(0, n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			a.AccountReduce(w.Counters, lo, hi)
			v := a.View(w.Socket)
			return v.Reduce(lo, hi, core.ReduceSum, nil, nil)
		})
	}
	scan := span.Child("reencode.scan")
	for p := 0; p < cfg.ScanPasses; p++ {
		verified = verified && sumPass() == scanRef
	}
	scan.End()
	record(re.CheckOnce())

	// The fused fold must survive the migration bit-identically.
	verified = verified && sumPass() == scanRef

	// Phase B: random gather loops; each loop re-scores, and the climbing
	// random share eventually flips the pick away from RLE.
	m := n
	idx := make([]uint64, m)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range idx {
		x = x*6364136223846793005 + 1442695040888963407
		idx[i] = x % n
	}
	var gatherRef uint64
	for _, ix := range idx {
		gatherRef += value(ix)
	}
	gather := span.Child("reencode.gather")
	for loop := 0; loop < cfg.GatherLoops; loop++ {
		gatherSum := rt.ReduceSum(0, m, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
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
		verified = verified && gatherSum == gatherRef
		events := re.CheckOnce()
		if len(events) > 0 && report.GatherFlipLoop == 0 {
			report.GatherFlipLoop = loop + 1
		}
		record(events)
	}
	gather.End()

	// The final representation still answers the fold correctly.
	verified = verified && sumPass() == scanRef
	// Path tracks events; a mismatch means an unrecorded migration.
	verified = verified && a.EncodingKind().String() == report.Path[len(report.Path)-1]
	verified = verified && a.EncodingKind() != encoding.RLE

	report.Profile, _ = reg.Profile(a.TelemetryID())
	report.Verified = verified
	return report
}
