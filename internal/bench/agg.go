package bench

import (
	"fmt"
	"sync"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/interop"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/minivm"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// AggConfig is one aggregation experiment cell (§5.1): two arrays summed
// in parallel under a placement × compression × language combination.
type AggConfig struct {
	Machine   *machine.Spec
	Lang      Lang
	Bits      uint
	Placement memsim.Placement
	Socket    int
}

// AggResult is one bar of Figures 2/10: modeled time, machine-wide memory
// bandwidth, and instruction count at paper scale, plus the really
// computed checksum at the experiment scale.
type AggResult struct {
	AggConfig
	// PlacementLabel is the figure's series name ("OS default/single
	// socket" folds the paper's two identical series).
	PlacementLabel string
	// TimeMs / BandwidthGBs / InstructionsG are the modeled paper-scale
	// outcomes (Figure 10's three panels).
	TimeMs        float64
	BandwidthGBs  float64
	InstructionsG float64
	Bottleneck    string
	// Sum is the real run's aggregation result; Verified reports that it
	// matched the plain reference.
	Sum      uint64
	Verified bool
}

// aggPlacementLabel names the placement as the figures do.
func aggPlacementLabel(p memsim.Placement) string {
	if p == memsim.OSDefault || p == memsim.SingleSocket {
		return "OS default/single socket"
	}
	return p.String()
}

// initFormula is the paper's array initialization: a[i] =
// (i+random(0,1,2)) & ((1<<bits)-1), "slightly random" values in range.
func initFormula(i uint64, mask uint64) uint64 {
	r := (i * 6364136223846793005) >> 62 // top bits of an LCG step: 0..3
	if r == 3 {
		r = 1
	}
	return (i + r) & mask
}

// RunAggregation executes one aggregation cell: really runs the parallel
// sum at opts.Elements per array on the simulated machine, verifies it,
// then models the paper-scale run.
func RunAggregation(cfg AggConfig, opts Options) (AggResult, error) {
	rt := rts.New(cfg.Machine)
	opts.instrument(rt)
	codec, err := bitpack.New(cfg.Bits)
	if err != nil {
		return AggResult{}, err
	}
	mask := codec.Mask()

	placement := cfg.Placement
	alloc := func() (*core.SmartArray, error) {
		return core.Allocate(rt.Memory(), core.Config{
			Length: opts.Elements, Bits: cfg.Bits,
			Placement: placement, Socket: cfg.Socket,
		})
	}
	a1, err := alloc()
	if err != nil {
		return AggResult{}, err
	}
	defer a1.Free()
	a2, err := alloc()
	if err != nil {
		return AggResult{}, err
	}
	defer a2.Free()

	// Single-threaded initialization, as in the paper: under the OS
	// default policy all pages first-touch onto socket 0.
	var want uint64
	fill := func(a *core.SmartArray, offset uint64) {
		fillRange(a, 0, 0, opts.Elements, func(i uint64) uint64 {
			v := initFormula(i+offset, mask)
			want += v
			return v
		})
	}
	fill(a1, 0)
	fill(a2, 17)

	var sum uint64
	switch cfg.Lang {
	case LangJava:
		sum, err = javaAggregate(rt, a1, a2)
		if err != nil {
			return AggResult{}, err
		}
	default:
		sum = rt.ReduceSum(0, opts.Elements, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			a1.AccountReduce(w.Counters, lo, hi)
			a2.AccountReduce(w.Counters, lo, hi)
			v1, v2 := a1.View(w.Socket), a2.View(w.Socket)
			return v1.Reduce(lo, hi, core.ReduceSum, nil, nil) + v2.Reduce(lo, hi, core.ReduceSum, nil, nil)
		})
	}
	verified := sum == want
	if opts.Verify && !verified {
		return AggResult{}, fmt.Errorf("bench: aggregation mismatch: got %d, want %d (%+v)", sum, want, cfg)
	}
	if opts.Recorder != nil {
		opts.Recorder.RecordCounters(
			fmt.Sprintf("aggregation %s %s bits=%d", cfg.Lang, cfg.Placement, cfg.Bits),
			obs.CountersRecord(rt.Fabric().Snapshot()))
	}

	res := modelAggregation(cfg)
	return AggResult{
		AggConfig:      cfg,
		PlacementLabel: aggPlacementLabel(cfg.Placement),
		TimeMs:         res.Seconds * 1e3,
		BandwidthGBs:   res.MemBandwidthGBs,
		InstructionsG:  res.Instructions / 1e9,
		Bottleneck:     string(res.Bottleneck),
		Sum:            sum,
		Verified:       verified,
	}, nil
}

// javaAggregate runs the aggregation through the guest VM: each worker
// batch compiles (once per worker, reused across batches via reset) the
// two-iterator sum program against the inlined smart-array path.
func javaAggregate(rt *rts.Runtime, a1, a2 *core.SmartArray) (uint64, error) {
	ep := interop.NewEntryPoints(rt.Memory())
	h1 := ep.Registry().RegisterArray(a1)
	h2 := ep.Registry().RegisterArray(a2)

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	sum := rt.ReduceSum(0, a1.Length(), 0, func(w *rts.Worker, lo, hi uint64) uint64 {
		a1.AccountReduce(w.Counters, lo, hi)
		a2.AccountReduce(w.Counters, lo, hi)
		prog := minivm.SumTwoIterProgram(hi - lo)
		bind := func() *minivm.ArrayBinding {
			return &minivm.ArrayBinding{Path: minivm.PathSmart, EP: ep, Socket: w.Socket}
		}
		b1, b2 := bind(), bind()
		b1.Handle, b2.Handle = h1, h2
		vm, err := minivm.New(prog, []*minivm.ArrayBinding{b1, b2})
		if err != nil {
			fail(err)
			return 0
		}
		if err := vm.BindIter(0, 0, lo); err != nil {
			fail(err)
			return 0
		}
		if err := vm.BindIter(1, 1, lo); err != nil {
			fail(err)
			return 0
		}
		cp, err := vm.Compile()
		if err != nil {
			fail(err)
			return 0
		}
		v, err := cp.Run()
		if err != nil {
			fail(err)
			return 0
		}
		return v
	})
	return sum, firstErr
}

// modelAggregation evaluates the paper-scale workload (two ~500M-element
// arrays) for the cell's configuration.
func modelAggregation(cfg AggConfig) perfmodel.Result {
	return perfmodel.Solve(cfg.Machine, AggregationWorkload(cfg, PaperAggElements))
}

// AggregationWorkload builds the model descriptor for the two-array sum at
// any scale. The paper's single-threaded initialization makes the OS
// default placement behave as single-socket; the descriptor reflects that.
func AggregationWorkload(cfg AggConfig, elems uint64) perfmodel.Workload {
	codec := bitpack.MustNew(cfg.Bits)
	bytes := float64(codec.CompressedBytes(elems))
	placement := cfg.Placement
	socket := cfg.Socket
	if placement == memsim.OSDefault {
		placement = memsim.SingleSocket
		socket = 0
	}
	// The aggregation is a pure reduction routed through the fused
	// packed-scan kernels (View.Reduce -> bitpack.SumChunks), so its
	// instruction cost is the fused one. The guest language reaches the
	// same specialized kernel through the inlined entry points (the paper's
	// language-independence claim, §4.3), so Java pays only the residual
	// JIT factor on top of the fused cost.
	instr := 2 * float64(elems) * perfmodel.CostReduce(cfg.Bits)
	if cfg.Lang == LangJava {
		instr *= javaInstrFactor
	}
	return perfmodel.Workload{
		Instructions: instr,
		Streams: []perfmodel.Stream{
			{Kind: perfmodel.Read, Bytes: bytes, Placement: placement, Socket: socket},
			{Kind: perfmodel.Read, Bytes: bytes, Placement: placement, Socket: socket},
		},
	}
}

// Figure2Bits and Figure2Placements are the four regimes of Figure 2 on
// the 18-core machine.
var figure2Cells = []struct {
	bits      uint
	placement memsim.Placement
}{
	{64, memsim.SingleSocket},
	{64, memsim.Interleaved},
	{64, memsim.Replicated},
	{33, memsim.Replicated},
}

// RunFigure2 reproduces Figure 2: parallel aggregation on the 18-core
// machine across the four smart-functionality regimes.
func RunFigure2(opts Options) ([]AggResult, error) {
	var rows []AggResult
	for _, cell := range figure2Cells {
		r, err := RunAggregation(AggConfig{
			Machine: machine.X52Large(), Lang: LangCPP,
			Bits: cell.bits, Placement: cell.placement,
		}, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Figure10Bits is the paper's bit-compression sweep.
var Figure10Bits = []uint{10, 31, 32, 33, 50, 63, 64}

// Figure10Placements are the three placement series of Figure 10.
var Figure10Placements = []memsim.Placement{memsim.OSDefault, memsim.Interleaved, memsim.Replicated}

// RunFigure10 reproduces Figure 10: the full aggregation sweep — bits x
// placements x languages x machines (84 cells).
func RunFigure10(opts Options) ([]AggResult, error) {
	var rows []AggResult
	for _, spec := range Machines() {
		for _, lang := range []Lang{LangCPP, LangJava} {
			for _, p := range Figure10Placements {
				for _, bits := range Figure10Bits {
					r, err := RunAggregation(AggConfig{
						Machine: spec, Lang: lang, Bits: bits, Placement: p,
					}, opts)
					if err != nil {
						return nil, err
					}
					rows = append(rows, r)
				}
			}
		}
	}
	return rows, nil
}
