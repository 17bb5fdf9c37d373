package perfmodel

import (
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/counters"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// aggregation builds the paper's §5.1 workload: a parallel sum of two 4 GB
// 64-bit arrays (~500M elements each), stored at the given width and
// placement.
func aggregation(bits uint, p memsim.Placement) Workload {
	const elems = 4 * machine.GB / 8 // per array
	codec := bitpack.MustNew(bits)
	bytes := float64(codec.CompressedBytes(elems))
	return Workload{
		Instructions: 2 * elems * CostScan(bits),
		Streams: []Stream{
			{Kind: Read, Bytes: bytes, Placement: p, Socket: 0},
			{Kind: Read, Bytes: bytes, Placement: p, Socket: 0},
		},
	}
}

func ms(r Result) float64 { return r.Seconds * 1e3 }

// TestFigure2Regimes reproduces the four regimes of the paper's Figure 2 on
// the 18-core machine: single socket 43 GB/s / 201 ms -> interleaved
// 71 / 122 -> replicated 80 / 109 -> replicated+33-bit 73 / 62.
func TestFigure2Regimes(t *testing.T) {
	spec := machine.X52Large()
	single := Solve(spec, aggregation(64, memsim.SingleSocket))
	inter := Solve(spec, aggregation(64, memsim.Interleaved))
	repl := Solve(spec, aggregation(64, memsim.Replicated))
	replC := Solve(spec, aggregation(33, memsim.Replicated))

	// Ordering: each smart functionality strictly improves on the last.
	if !(ms(single) > ms(inter) && ms(inter) > ms(repl) && ms(repl) > ms(replC)) {
		t.Fatalf("regime ordering violated: single=%.0f inter=%.0f repl=%.0f replC=%.0f ms",
			ms(single), ms(inter), ms(repl), ms(replC))
	}
	// Magnitudes within 25%% of the paper's annotations.
	approx := func(name string, got, want float64) {
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("%s = %.0f ms, want about %.0f ms (paper Figure 2)", name, got, want)
		}
	}
	approx("single socket", ms(single), 201)
	approx("interleaved", ms(inter), 122)
	approx("replicated", ms(repl), 109)
	approx("replicated+33-bit", ms(replC), 62)

	// Bandwidth annotations.
	if bw := single.MemBandwidthGBs; bw < 35 || bw > 50 {
		t.Errorf("single socket bandwidth = %.1f GB/s, want about 43", bw)
	}
	if bw := repl.MemBandwidthGBs; bw < 70 || bw > 95 {
		t.Errorf("replicated bandwidth = %.1f GB/s, want about 80", bw)
	}

	// Bottleneck identification.
	if single.Bottleneck != BottleneckMemory {
		t.Errorf("single socket bottleneck = %v, want memory", single.Bottleneck)
	}
	if replC.Bottleneck != BottleneckCompute {
		t.Errorf("repl+compressed bottleneck = %v, want compute", replC.Bottleneck)
	}
}

// TestSmallMachineRegimes checks the 8-core machine's distinctive behaviour
// (§5.1): the single QPI link makes interleaving WORSE than single socket,
// replication is ~2x better, and compression HURTS replicated placement.
func TestSmallMachineRegimes(t *testing.T) {
	spec := machine.X52Small()
	single := Solve(spec, aggregation(64, memsim.SingleSocket))
	inter := Solve(spec, aggregation(64, memsim.Interleaved))
	repl := Solve(spec, aggregation(64, memsim.Replicated))
	replC := Solve(spec, aggregation(33, memsim.Replicated))
	interC := Solve(spec, aggregation(33, memsim.Interleaved))

	if !(ms(inter) > ms(single)) {
		t.Errorf("interleaved (%.0f ms) should be worse than single socket (%.0f ms) on 8-core",
			ms(inter), ms(single))
	}
	if ratio := ms(single) / ms(repl); ratio < 1.7 || ratio > 2.4 {
		t.Errorf("replication speedup over single = %.2fx, want about 2x", ratio)
	}
	if !(ms(replC) > ms(repl)) {
		t.Errorf("compression should hurt replicated on 8-core: compressed %.0f ms vs %.0f ms",
			ms(replC), ms(repl))
	}
	if !(ms(interC) < ms(inter)) {
		t.Errorf("compression should help interleaved on 8-core: compressed %.0f ms vs %.0f ms",
			ms(interC), ms(inter))
	}
	if inter.Bottleneck != BottleneckInterconnect {
		t.Errorf("8-core interleaved bottleneck = %v, want interconnect", inter.Bottleneck)
	}
}

// TestLargeMachineCompressionWins: on the 18-core machine, compression
// helps every placement (§5.1), up to ~4x for the OS-default (single
// socket) case with 10-bit data.
func TestLargeMachineCompressionWins(t *testing.T) {
	spec := machine.X52Large()
	for _, p := range []memsim.Placement{memsim.SingleSocket, memsim.Interleaved, memsim.Replicated} {
		u := Solve(spec, aggregation(64, p))
		c := Solve(spec, aggregation(33, p))
		if !(c.Seconds < u.Seconds) {
			t.Errorf("placement %v: compression should win on 18-core (%.0f vs %.0f ms)",
				p, ms(c), ms(u))
		}
	}
	u := Solve(spec, aggregation(64, memsim.SingleSocket))
	c10 := Solve(spec, aggregation(10, memsim.SingleSocket))
	if ratio := u.Seconds / c10.Seconds; ratio < 3 || ratio > 5.5 {
		t.Errorf("10-bit speedup over 64-bit single socket = %.1fx, want about 4x", ratio)
	}
}

func TestSingleSocketWorkloadShiftsWork(t *testing.T) {
	// With single-socket placement on the small machine, the QPI link is so
	// slow that the balanced solution gives most work to the local socket.
	spec := machine.X52Small()
	r := Solve(spec, aggregation(64, memsim.SingleSocket))
	if r.WorkShare[0] < 0.6 {
		t.Errorf("local socket share = %.2f, want > 0.6 (dynamic scheduling favours local threads)", r.WorkShare[0])
	}
}

func TestUMACollapsesPlacements(t *testing.T) {
	spec := machine.UMA(8)
	a := Solve(spec, aggregation(64, memsim.SingleSocket))
	b := Solve(spec, aggregation(64, memsim.Replicated))
	if a.Seconds != b.Seconds {
		t.Errorf("UMA: placements should be equivalent (%v vs %v)", a.Seconds, b.Seconds)
	}
}

func TestReplicatedWritesChargedPerReplica(t *testing.T) {
	spec := machine.X52Large()
	wr := Workload{Streams: []Stream{{Kind: Write, Bytes: machine.GB, Placement: memsim.Replicated}}}
	r := Solve(spec, wr)
	// Both memories must absorb the full GB.
	if r.PerMemoryGBs[0] <= 0 || r.PerMemoryGBs[1] <= 0 {
		t.Errorf("replicated write should hit both memories: %v", r.PerMemoryGBs)
	}
	if r.TotalBytes != 2*machine.GB {
		t.Errorf("TotalBytes = %v, want %v", r.TotalBytes, 2*machine.GB)
	}
}

func TestEvaluateFixedMatchesHandAccounting(t *testing.T) {
	spec := machine.X52Small()
	f := counters.NewFabric(2)
	sh0 := f.NewShard(0)
	sh1 := f.NewShard(1)
	// Socket 0 reads 49.3 GB locally: exactly one second of memory time.
	oneSecond := 49.3 * float64(machine.GB)
	sh0.Read(0, uint64(oneSecond))
	// Socket 1 reads 1 GB locally: not binding.
	sh1.Read(1, machine.GB)
	r := EvaluateFixed(spec, f.Snapshot())
	if r.Seconds < 0.99 || r.Seconds > 1.01 {
		t.Errorf("Seconds = %v, want ~1.0", r.Seconds)
	}
	if r.Bottleneck != BottleneckMemory && r.Bottleneck != BottleneckIssue {
		t.Errorf("bottleneck = %v, want memory/issue", r.Bottleneck)
	}
}

func TestEvaluateFixedInterconnect(t *testing.T) {
	spec := machine.X52Small() // 8 GB/s QPI
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	sh.Read(1, 8*machine.GB) // all remote: one second of link time
	r := EvaluateFixed(spec, f.Snapshot())
	if r.Seconds < 0.99 || r.Seconds > 1.01 {
		t.Errorf("Seconds = %v, want ~1.0 (QPI bound)", r.Seconds)
	}
	if r.Bottleneck != BottleneckInterconnect {
		t.Errorf("bottleneck = %v, want interconnect", r.Bottleneck)
	}
	if r.InterconnectGBs < 7.9 || r.InterconnectGBs > 8.1 {
		t.Errorf("link bandwidth = %v, want ~8", r.InterconnectGBs)
	}
}

func TestEvaluateFixedCompute(t *testing.T) {
	spec := machine.X52Small()
	f := counters.NewFabric(2)
	sh := f.NewShard(0)
	sh.Instr(uint64(spec.ExecRate())) // one second of compute
	r := EvaluateFixed(spec, f.Snapshot())
	if r.Seconds < 0.99 || r.Seconds > 1.01 {
		t.Errorf("Seconds = %v, want ~1.0 (compute bound)", r.Seconds)
	}
	if r.Bottleneck != BottleneckCompute {
		t.Errorf("bottleneck = %v, want compute", r.Bottleneck)
	}
}

func TestEvaluateFixedPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvaluateFixed(machine.X52Small(), counters.NewFabric(1).Snapshot())
}

func TestCostScanShape(t *testing.T) {
	if CostScan(64) != CostScanU64 || CostScan(32) != CostScanU32 {
		t.Error("specialized widths must use the cheap iterator costs")
	}
	if CostScan(33) <= CostScan(64) {
		t.Error("compressed scan must cost more instructions than uncompressed")
	}
	if CostScan(63) <= CostScan(10) {
		t.Error("wider compressed elements must cost more (cross-word combines)")
	}
}

func TestRandomReadBytes(t *testing.T) {
	// Array much larger than LLC: essentially every access misses a line.
	if got := RandomReadBytes(100*machine.GB, 8, 40e6, 1); got < 60 {
		t.Errorf("cold random read = %v bytes, want ~64", got)
	}
	// Array fits in LLC: only payload bytes.
	if got := RandomReadBytes(1e6, 8, 40e6, 1); got != 8 {
		t.Errorf("cached random read = %v bytes, want 8", got)
	}
	if got := RandomReadBytes(0, 8, 40e6, 1); got != 0 {
		t.Errorf("empty array = %v, want 0", got)
	}
}

func TestSolveThreeSocketSanity(t *testing.T) {
	// A hypothetical 3-socket machine: solver must still produce a finite,
	// normalized split and respect the single-socket memory bound.
	spec := &machine.Spec{
		Name: "3-socket", CPU: "test", Sockets: 3, CoresPerSocket: 8,
		ThreadsPerCore: 1, ClockGHz: 2, MemPerSocketGB: 64,
		LocalLatencyNs: 80, RemoteLatencyNs: 120, LocalBWGBs: 40,
		RemoteBWGBs: 10, LLCMB: 20, IPCEff: 3, RemoteStallFactor: 1.25,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	w := Workload{Streams: []Stream{{Kind: Read, Bytes: 40 * machine.GB, Placement: memsim.SingleSocket, Socket: 0}}}
	r := Solve(spec, w)
	var sum float64
	for _, s := range r.WorkShare {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("work shares not normalized: %v", r.WorkShare)
	}
	if r.Seconds < 0.99 {
		t.Errorf("Seconds = %v, want >= 1.0 (memory 0 must serve 40 GB at 40 GB/s)", r.Seconds)
	}
}

// TestEightSocketPlacements exercises the general (n>2) solver on the
// Callisto-scale machine: replication dominates, single-socket placement
// collapses to one memory channel's bandwidth, and interleaving sits in
// between (per-link bandwidth is low, but there are 7 links pulling).
func TestEightSocketPlacements(t *testing.T) {
	spec := machine.X58Callisto()
	repl := Solve(spec, aggregation(64, memsim.Replicated))
	inter := Solve(spec, aggregation(64, memsim.Interleaved))
	single := Solve(spec, aggregation(64, memsim.SingleSocket))
	if !(repl.Seconds < inter.Seconds && inter.Seconds < single.Seconds) {
		t.Errorf("8-socket ordering violated: repl=%.0f inter=%.0f single=%.0f ms",
			repl.Seconds*1e3, inter.Seconds*1e3, single.Seconds*1e3)
	}
	// Replication uses all 8 memory channels: ~8x the single-socket rate.
	if ratio := single.Seconds / repl.Seconds; ratio < 5 {
		t.Errorf("replication speedup on 8 sockets = %.1fx, want >= 5x", ratio)
	}
	var sum float64
	for _, s := range repl.WorkShare {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("8-socket work shares not normalized: %v", repl.WorkShare)
	}
}

// modeledScanMs is the paper-scale (~500M-element) time on the 18-core
// machine of a scan that executes instrPerElem modeled instructions and
// streams bytesPerElem bytes per element.
func modeledScanMs(instrPerElem, bytesPerElem float64) float64 {
	const elems = 4 * machine.GB / 8
	return ms(Solve(machine.X52Large(), Workload{
		Instructions: elems * instrPerElem,
		Streams:      []Stream{{Kind: Read, Bytes: elems * bytesPerElem, Placement: memsim.Interleaved}},
	}))
}

// TestModeledSkipPathsTenfold pins the order-of-magnitude claim the docs
// make for the model's run-skipping path, with the cost inputs taken from
// small 16-bit arrays: a run-skipping RLE fold over clustered data (runs
// of 512) models at least 10x cheaper than the bit-packed decode.
func TestModeledSkipPathsTenfold(t *testing.T) {
	const n = 1 << 16
	const bits = 16
	const mask = 1<<bits - 1
	hash := func(i uint64) uint64 {
		h := i*6364136223846793005 + 1442695040888963407
		return (h ^ h>>31) & mask
	}
	build := func(kind encoding.Kind, value func(i uint64) uint64) encoding.ChunkCodec {
		values := make([]uint64, n)
		for i := range values {
			values[i] = value(uint64(i))
		}
		e, err := encoding.Build(kind, values)
		if err != nil {
			t.Fatal(err)
		}
		return e.(encoding.ChunkCodec)
	}

	clustered := func(i uint64) uint64 { return hash(i / 512) }
	fold := func(kind encoding.Kind) float64 {
		cs := encoding.CostStatsOf(build(kind, clustered))
		return modeledScanMs(CostEncodedReduce(cs), cs.PayloadBitsPerElem/8)
	}
	if rle, packed := fold(encoding.RLE), fold(encoding.BitPacked); packed < 10*rle {
		t.Errorf("clustered fold: rle %.2f ms vs bitpacked %.2f ms, want >= 10x", rle, packed)
	}
}
