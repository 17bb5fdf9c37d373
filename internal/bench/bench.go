// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§5, §6.3), regenerating the same rows and
// series the paper reports.
//
// Every experiment does two things:
//
//  1. Really executes the workload at a scaled-down size on the simulated
//     machine (validating results against plain references), and
//  2. Models the workload at the paper's dataset size with the calibrated
//     performance model, reporting modeled time, memory bandwidth, and
//     instruction counts — the three panels of Figures 10-12.
//
// Absolute modeled numbers are compared against the paper in
// EXPERIMENTS.md; the reproduction targets are the shapes: who wins, where
// the crossovers fall, and the rough factors.
package bench

import (
	"fmt"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// Lang selects the implementation language of a workload (Figure 10 runs
// every aggregation in both C++ and Java).
type Lang int

const (
	// LangCPP is the native path: host Go code standing in for C++.
	LangCPP Lang = iota
	// LangJava is the guest path: the mini-VM's compiled tier accessing
	// smart arrays through the inlined entry points.
	LangJava
)

// String names the language as the paper does.
func (l Lang) String() string {
	if l == LangJava {
		return "Java"
	}
	return "C++"
}

// javaInstrFactor models the residual instruction overhead of the guest
// language after JIT compilation: the paper finds Java "generally as good
// as" C++ with small differences from the different compilers (§5.1).
const javaInstrFactor = 1.08

// Options control experiment scale. Real execution uses the scaled sizes;
// the model always evaluates the paper-scale dataset.
type Options struct {
	// Elements is the per-array element count for real aggregation runs
	// (the paper's arrays have ~500M elements; the default here keeps CI
	// runs fast).
	Elements uint64
	// GraphVertices scales the real graph workloads.
	GraphVertices uint64
	// Verify cross-checks every real run against a plain reference.
	Verify bool
	// Recorder, when non-nil, receives the run's observability events:
	// RTS loop statistics, counter-fabric snapshots bracketing each real
	// run, and adaptivity decisions.
	Recorder *obs.Recorder
	// Steal enables Callisto cross-socket work stealing in the real runs.
	// Off by default so loop statistics stay stripe-attributed.
	Steal bool
	// Arrays, when non-nil, receives per-array access telemetry from every
	// real run: instrument attaches it to each run's runtime, whose arrays
	// register with it and whose loops fold into it at their barriers. The
	// introspection server's /arrays endpoint reads the same registry.
	Arrays *obs.ArrayRegistry
}

// instrument wires the options' observability sinks and the stealing policy
// into a freshly created runtime. Every experiment runner calls this right
// after rts.New.
func (o Options) instrument(rt *rts.Runtime) {
	rt.SetRecorder(o.Recorder)
	rt.SetStealing(o.Steal)
	rt.SetArrayProfiling(o.Arrays)
}

// fillRange sets elements [lo, hi) of a to fn(i) from a writer on socket,
// in one InitRange call.
func fillRange(a *core.SmartArray, socket int, lo, hi uint64, fn func(i uint64) uint64) {
	values := make([]uint64, hi-lo)
	for i := range values {
		values[i] = fn(lo + uint64(i))
	}
	a.InitRange(socket, lo, values)
}

// PaperAggElements is the paper's aggregation array length: a 4 GB array
// of 64-bit integers (~500M elements, §5.1).
const PaperAggElements = 4 * machine.GB / 8

// Paper Twitter graph shape (§5.2) and PageRank iteration count.
const (
	PaperTwitterVertices = 42_000_000
	PaperTwitterEdges    = 1_500_000_000
	PaperPageRankIters   = 15
	// PaperDegreeVertices is the degree-centrality graph: 1.5G vertices, 3
	// random edges per vertex.
	PaperDegreeVertices = 1_500_000_000
	PaperDegreeDegree   = 3
)

// Machines returns the two Table 1 machines keyed by short name, in
// presentation order.
func Machines() []*machine.Spec {
	return []*machine.Spec{machine.X52Small(), machine.X52Large()}
}

func fmtGBs(b float64) string { return fmt.Sprintf("%.1f", b) }
