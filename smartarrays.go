// Package smartarrays is a Go reproduction of "Analytics with Smart
// Arrays: Adaptive and Efficient Language-Independent Data" (Psaroudakis
// et al., EuroSys 2018).
//
// Smart arrays are arrays whose "smart functionalities" trade hardware
// resources against each other: NUMA-aware data placement (OS default,
// single socket, interleaved, replicated) and bit compression (1–64 bits
// per element). A single implementation serves multiple languages through
// a scalar entry-point ABI, and an adaptivity engine picks the
// configuration predicted fastest from profiled counters.
//
// The package is a thin facade over the internal implementation:
//
//	sys := smartarrays.NewSystem(smartarrays.LargeMachine())
//	arr, _ := sys.Allocate(smartarrays.Config{
//	        Length:    1 << 20,
//	        Bits:      33,
//	        Placement: smartarrays.Replicated,
//	})
//	sys.FillArray(arr, func(i uint64) uint64 { return i })
//	sum := sys.SumArray(arr)
//
// Because Go cannot pin pages to NUMA nodes, the machine is simulated: a
// declarative topology (the paper's two Oracle X5-2 machines are presets),
// page-granular placement with real backing storage, and a calibrated
// bottleneck model that converts accounted traffic into modeled time and
// bandwidth. See DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for paper-versus-measured results.
package smartarrays

import (
	"smartarrays/internal/adapt"
	"smartarrays/internal/analytics"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/interop"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// Core array types.
type (
	// Array is a smart array (placement × compression behind one API).
	Array = core.SmartArray
	// Config describes an array to allocate.
	Config = core.Config
	// Iterator is the forward-scan iterator (paper Figure 9).
	Iterator = core.Iterator
	// Placement is a NUMA data placement policy.
	Placement = memsim.Placement
	// Machine is a declarative NUMA machine description (paper Table 1).
	Machine = machine.Spec
	// Worker is a socket-pinned runtime worker.
	Worker = rts.Worker
)

// Placement policies (paper §4.1).
const (
	// OSDefault places pages on the first-touching thread's socket.
	OSDefault = memsim.OSDefault
	// SingleSocket pins all pages to one socket.
	SingleSocket = memsim.SingleSocket
	// Interleaved round-robins pages across sockets.
	Interleaved = memsim.Interleaved
	// Replicated keeps one full copy per socket.
	Replicated = memsim.Replicated
)

// Adaptivity types (paper §6).
type (
	// Traits are programmer-declared workload characteristics.
	Traits = adapt.Traits
	// Profile is a measured workload profile.
	Profile = adapt.Profile
	// Candidate is a recommended configuration.
	Candidate = adapt.Candidate
)

// Graph analytics types (paper §5.2).
type (
	// Graph is a CSR graph.
	Graph = graph.CSR
	// SmartGraph is a CSR graph materialized in smart arrays.
	SmartGraph = graph.SmartCSR
	// GraphLayout selects the graph arrays' placement and compression.
	GraphLayout = graph.Layout
	// PageRankConfig parameterizes PageRank.
	PageRankConfig = analytics.PageRankConfig
)

// SmallMachine returns the paper's 2×8-core Xeon (Table 1): low
// interconnect bandwidth, where replication shines and compression hurts.
func SmallMachine() *Machine { return machine.X52Small() }

// LargeMachine returns the paper's 2×18-core Xeon (Table 1): high
// interconnect bandwidth, where compression helps every placement.
func LargeMachine() *Machine { return machine.X52Large() }

// NewIterator allocates an iterator over the array for a reader on socket.
func NewIterator(a *Array, socket int, index uint64) Iterator {
	return core.NewIterator(a, socket, index)
}

// SumRange aggregates a[lo:hi] through the fused chunk kernels.
func SumRange(a *Array, socket int, lo, hi uint64) uint64 {
	return core.ReduceRange(a, socket, lo, hi, core.ReduceSum)
}

// Map applies fn over a[lo:hi], unpacking whole chunks (the §7 bounded-map
// API).
func Map(a *Array, socket int, lo, hi uint64, fn func(index, value uint64)) {
	core.Map(a, socket, lo, hi, fn)
}

// MinBits returns the minimum element width for maxValue (the compression
// rule of §4.2).
func MinBits(maxValue uint64) uint { return bitpack.MinBits(maxValue) }

// System bundles a simulated machine, its runtime, memory, and entry
// points — everything needed to allocate and operate smart arrays.
type System struct {
	rt *rts.Runtime
	ep *interop.EntryPoints
}

// NewSystem creates a system for the given machine (see SmallMachine,
// LargeMachine, or build a custom Machine).
func NewSystem(spec *Machine) *System {
	rt := rts.New(spec)
	return &System{rt: rt, ep: interop.NewEntryPoints(rt.Memory())}
}

// Spec returns the machine description.
func (s *System) Spec() *Machine { return s.rt.Spec() }

// Runtime exposes the Callisto-style parallel runtime.
func (s *System) Runtime() *rts.Runtime { return s.rt }

// EntryPoints exposes the language-independent entry-point ABI, the
// surface guest languages (see internal/minivm) call.
func (s *System) EntryPoints() *interop.EntryPoints { return s.ep }

// Allocate creates a smart array.
func (s *System) Allocate(cfg Config) (*Array, error) {
	return core.Allocate(s.rt.Memory(), cfg)
}

// AllocateFor creates and fills a smart array from values, using the
// minimum width that fits them.
func (s *System) AllocateFor(values []uint64, p Placement, socket int) (*Array, error) {
	return core.AllocateFor(s.rt.Memory(), values, p, socket)
}

// ParallelFor runs body over [begin, end) with dynamic batch distribution
// across all simulated hardware threads.
func (s *System) ParallelFor(begin, end uint64, grain int64, body func(w *Worker, lo, hi uint64)) {
	s.rt.ParallelFor(begin, end, grain, body)
}

// SumArray aggregates the whole array in parallel — the paper's canonical
// workload (§5.1).
func (s *System) SumArray(a *Array) uint64 {
	return s.rt.ReduceSum(0, a.Length(), 0, func(w *Worker, lo, hi uint64) uint64 {
		return core.ReduceRange(a, w.Socket, lo, hi, core.ReduceSum)
	})
}

// FillArray initializes the whole array in parallel from fn(index).
// Batches are chunk-aligned, so concurrent writers never share packed
// words. Multi-threaded initialization is also what makes the OS-default
// placement spread across sockets via first touch (§4.1) — in contrast to
// the single-threaded loop of the paper's aggregation setup.
func (s *System) FillArray(a *Array, fn func(index uint64) uint64) {
	s.rt.ParallelFor(0, a.Length(), 0, func(w *Worker, lo, hi uint64) {
		values := make([]uint64, hi-lo)
		for i := range values {
			values[i] = fn(lo + uint64(i))
		}
		a.InitRange(w.Socket, lo, values)
	})
}

// NewSmartGraph materializes a CSR graph into smart arrays per the layout.
func (s *System) NewSmartGraph(g *Graph, layout GraphLayout) (*SmartGraph, error) {
	return graph.NewSmartCSR(s.rt.Memory(), g, layout)
}

// PageRank runs the paper's PageRank over a smart graph, returning ranks
// and the iteration count.
func (s *System) PageRank(g *SmartGraph, cfg PageRankConfig) ([]float64, int, error) {
	ranks, iters, _, err := analytics.PageRank(s.rt, g, cfg)
	return ranks, iters, err
}

// DegreeCentrality computes out+in degrees per vertex into a new
// interleaved output array.
func (s *System) DegreeCentrality(g *SmartGraph) (*Array, error) {
	out, _, err := analytics.DegreeCentrality(s.rt, g)
	return out, err
}

// BFS runs a breadth-first search from src, returning levels (-1 for
// unreachable).
func (s *System) BFS(g *SmartGraph, src uint64) ([]int64, error) {
	levels, _, _, err := analytics.BFS(s.rt, g, src)
	return levels, err
}

// Recommend runs the §6 adaptivity pipeline over a measured profile.
func (s *System) Recommend(tr Traits, p *Profile) Candidate {
	return adapt.Decide(s.rt.Spec(), tr, p)
}

// ProfileScanWorkload models the flexible measurement run (uncompressed,
// interleaved) for a scan over totalElements 64-bit elements read
// timesEach times, and derives the adaptivity profile, proposing
// compression at compressedBits. It is the programmatic equivalent of the
// paper's counter-based measurement step.
func (s *System) ProfileScanWorkload(totalElements uint64, timesEach float64, compressedBits uint) *Profile {
	bytes := float64(totalElements) * 8 * timesEach
	w := perfmodel.Workload{
		Instructions: float64(totalElements) * timesEach * perfmodel.CostScanU64,
		Streams: []perfmodel.Stream{
			{Kind: perfmodel.Read, Bytes: bytes, Placement: memsim.Interleaved},
		},
	}
	res := perfmodel.Solve(s.rt.Spec(), w)
	mem := s.rt.Memory()
	words := totalElements // 64-bit words
	compWords := words * uint64(compressedBits) / 64
	return adapt.ProfileFromResult(s.rt.Spec(), res, adapt.ProfileOpts{
		Accesses:              float64(totalElements) * timesEach,
		CompressedBits:        compressedBits,
		UncompressedBits:      64,
		SpaceUncompressedRepl: mem.CanAlloc(words, memsim.Replicated, 0),
		SpaceCompressedRepl:   mem.CanAlloc(compWords, memsim.Replicated, 0),
	})
}
