package bench

import (
	"fmt"
	"math"

	"smartarrays/internal/analytics"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// GraphVariant is one bar of Figures 11/12: a placement series plus a
// compression variant label ("U", "33", "32", "V", "V+E", "original").
type GraphVariant struct {
	// Label names the placement series; Compression the x-axis group.
	Label       string
	Compression string
	// Layout realizes the variant; Original marks the paper's plain
	// (non-smart-array) baseline, modeled as multi-threaded first touch.
	Layout   graph.Layout
	Original bool
	// DegreeBits for PageRank's out-degree property (0 = 64).
	DegreeBits uint
}

// GraphResult is one modeled bar plus real-run validation.
type GraphResult struct {
	GraphVariant
	Machine string
	// TimeMs / BandwidthGBs / InstructionsG at paper scale.
	TimeMs        float64
	BandwidthGBs  float64
	InstructionsG float64
	Bottleneck    string
	// MemoryBytes is the dataset's payload footprint at paper scale (the
	// §5.2 memory-space formula), for the "V+E saves ~21%" comparison.
	MemoryBytes uint64
	// Verified: the real scaled-down run matched the plain reference.
	Verified bool
	// Iterations is PageRank's measured iteration count (0 otherwise).
	Iterations int
}

// placementSeries are the five series of Figures 11/12.
func placementSeries() []GraphVariant {
	return []GraphVariant{
		{Label: "original", Original: true, Layout: graph.Layout{Placement: memsim.Interleaved}},
		{Label: "OS default", Layout: graph.Layout{Placement: memsim.OSDefault}},
		{Label: "single socket", Layout: graph.Layout{Placement: memsim.SingleSocket}},
		{Label: "interleaved", Layout: graph.Layout{Placement: memsim.Interleaved}},
		{Label: "replicated", Layout: graph.Layout{Placement: memsim.Replicated}},
	}
}

// effectiveLayout maps a variant to the layout used for modeling: the
// "original" and OS-default series were initialized by multiple threads,
// so their pages spread like interleaving (§5.2: "the execution time of
// the original and OS default placements varies between the single socket
// and the interleaved data placements" — we model the interleaved end).
func effectiveLayout(v GraphVariant) graph.Layout {
	l := v.Layout
	if v.Original || l.Placement == memsim.OSDefault {
		l.Placement = memsim.Interleaved
	}
	return l
}

// RunFigure11 reproduces Figure 11: degree centrality over the five
// placement series, uncompressed ("U") and 33-bit compressed, on both
// machines. The real run validates a scaled graph; the model evaluates the
// paper's 1.5G-vertex graph (33 bits are exactly what its edge IDs need).
func RunFigure11(opts Options) ([]GraphResult, error) {
	var rows []GraphResult
	for _, spec := range Machines() {
		rt := rts.New(spec)
		opts.instrument(rt)
		g, err := graph.GenerateUniform(opts.GraphVertices, PaperDegreeDegree, 42)
		if err != nil {
			return nil, err
		}
		for _, compressed := range []bool{false, true} {
			for _, v := range placementSeries() {
				v.Compression = "U"
				if compressed {
					if v.Original {
						continue // the original baseline has no compression
					}
					v.Compression = "33"
					v.Layout.CompressBegin = true
					v.Layout.CompressEdge = true
				}
				row, err := runDegreeVariant(rt, g, spec, v, opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func runDegreeVariant(rt *rts.Runtime, g *graph.CSR, spec *machine.Spec, v GraphVariant, opts Options) (GraphResult, error) {
	s, err := graph.NewSmartCSR(rt.Memory(), g, v.Layout)
	if err != nil {
		return GraphResult{}, err
	}
	defer s.Free()
	out, _, err := analytics.DegreeCentrality(rt, s)
	if err != nil {
		return GraphResult{}, err
	}
	defer out.Free()
	verified := true
	if opts.Verify {
		rep := out.GetReplica(0)
		for vx := uint64(0); vx < g.NumVertices; vx++ {
			if out.Get(rep, vx) != g.OutDegree(uint32(vx))+g.InDegree(uint32(vx)) {
				return GraphResult{}, fmt.Errorf("bench: degree mismatch at vertex %d", vx)
			}
		}
	}

	shape := analytics.ShapeParams{
		V:      PaperDegreeVertices,
		E:      PaperDegreeVertices * PaperDegreeDegree,
		Layout: effectiveLayout(v),
	}
	res := perfmodel.Solve(spec, analytics.DegreeWorkloadFor(shape))
	return GraphResult{
		GraphVariant: v, Machine: spec.Name,
		TimeMs:        res.Seconds * 1e3,
		BandwidthGBs:  res.MemBandwidthGBs,
		InstructionsG: res.Instructions / 1e9,
		Bottleneck:    string(res.Bottleneck),
		Verified:      verified,
	}, nil
}

// figure12Variants are the four compression groups of Figure 12.
func figure12Variants() []struct {
	name                string
	compBegin, compEdge bool
	degreeBits          uint
} {
	return []struct {
		name                string
		compBegin, compEdge bool
		degreeBits          uint
	}{
		{"U", false, false, 64},
		{"32", false, false, 64}, // paper: arrays kept at native 32/64-bit widths
		{"V", true, false, 22},
		{"V+E", true, true, 22},
	}
}

// RunFigure12 reproduces Figure 12: PageRank over placement series x
// compression variants on both machines, modeled at the Twitter graph's
// scale, validated on a scaled power-law graph.
func RunFigure12(opts Options) ([]GraphResult, error) {
	var rows []GraphResult
	for _, spec := range Machines() {
		rt := rts.New(spec)
		opts.instrument(rt)
		g, err := graph.GeneratePowerLaw(opts.GraphVertices, 8, 1.6, 42)
		if err != nil {
			return nil, err
		}
		cfg := analytics.DefaultPageRankConfig()
		wantRanks, wantIters := analytics.PageRankRef(g, cfg)
		for _, variant := range figure12Variants() {
			for _, v := range placementSeries() {
				if v.Original && variant.name != "U" {
					continue
				}
				v.Compression = variant.name
				v.Layout.CompressBegin = variant.compBegin
				v.Layout.CompressEdge = variant.compEdge
				v.DegreeBits = variant.degreeBits
				row, err := runPageRankVariant(rt, g, spec, v, cfg, wantRanks, wantIters, opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func runPageRankVariant(rt *rts.Runtime, g *graph.CSR, spec *machine.Spec, v GraphVariant,
	cfg analytics.PageRankConfig, wantRanks []float64, wantIters int, opts Options) (GraphResult, error) {
	s, err := graph.NewSmartCSR(rt.Memory(), g, v.Layout)
	if err != nil {
		return GraphResult{}, err
	}
	defer s.Free()
	prCfg := cfg
	prCfg.DegreeBits = v.DegreeBits
	ranks, iters, _, err := analytics.PageRank(rt, s, prCfg)
	if err != nil {
		return GraphResult{}, err
	}
	verified := iters == wantIters
	if opts.Verify {
		for i := range ranks {
			if math.Abs(ranks[i]-wantRanks[i]) > 1e-9 {
				return GraphResult{}, fmt.Errorf("bench: pagerank mismatch at vertex %d (%s)", i, v.Label)
			}
		}
	}

	shape := analytics.ShapeParams{
		V:          PaperTwitterVertices,
		E:          PaperTwitterEdges,
		Layout:     effectiveLayout(v),
		DegreeBits: v.DegreeBits,
		Iters:      PaperPageRankIters,
	}
	res := perfmodel.Solve(spec, analytics.PageRankWorkloadFor(spec, shape))
	return GraphResult{
		GraphVariant: v, Machine: spec.Name,
		TimeMs:        res.Seconds * 1e3,
		BandwidthGBs:  res.MemBandwidthGBs,
		InstructionsG: res.Instructions / 1e9,
		Bottleneck:    string(res.Bottleneck),
		MemoryBytes:   analytics.PageRankMemoryBytes(shape),
		Verified:      verified,
		Iterations:    iters,
	}, nil
}

// RunFigure1 reproduces Figure 1: PageRank on the 8-core machine, original
// versus smart arrays with replication — time and memory bandwidth. The
// paper reports a >2x improvement in both.
func RunFigure1(opts Options) (original, replicated GraphResult, err error) {
	spec := machine.X52Small()
	rt := rts.New(spec)
	opts.instrument(rt)
	g, err := graph.GeneratePowerLaw(opts.GraphVertices, 8, 1.6, 42)
	if err != nil {
		return GraphResult{}, GraphResult{}, err
	}
	cfg := analytics.DefaultPageRankConfig()
	wantRanks, wantIters := analytics.PageRankRef(g, cfg)

	orig := GraphVariant{Label: "original", Original: true, Compression: "U",
		Layout: graph.Layout{Placement: memsim.Interleaved}, DegreeBits: 64}
	repl := GraphVariant{Label: "smart arrays w/ replication", Compression: "U",
		Layout: graph.Layout{Placement: memsim.Replicated}, DegreeBits: 64}

	original, err = runPageRankVariant(rt, g, spec, orig, cfg, wantRanks, wantIters, opts)
	if err != nil {
		return GraphResult{}, GraphResult{}, err
	}
	replicated, err = runPageRankVariant(rt, g, spec, repl, cfg, wantRanks, wantIters, opts)
	if err != nil {
		return GraphResult{}, GraphResult{}, err
	}
	return original, replicated, nil
}
