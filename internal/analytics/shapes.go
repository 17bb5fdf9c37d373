package analytics

import (
	"smartarrays/internal/bitpack"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/perfmodel"
)

// ShapeParams describes a graph workload by size and layout only, without
// materializing any arrays. The benchmark harness uses these to model the
// paper's full-size datasets (1.5G vertices for degree centrality, the
// 42M-vertex / 1.5G-edge Twitter graph for PageRank) that cannot be
// allocated for real on the host.
type ShapeParams struct {
	// V and E are the vertex and edge counts.
	V, E uint64
	// Layout is the graph arrays' placement and compression.
	Layout graph.Layout
	// DegreeBits is the out-degree property width for PageRank (0 = 64).
	DegreeBits uint
	// Iters is the PageRank iteration count (paper: 15 on Twitter).
	Iters int
}

// widths are the begin and edge widths SmartCSR would pack the shape at.
func (p *ShapeParams) widths() (beginBits, edgeBits uint) {
	return p.Layout.Widths(p.E, p.V-1)
}

// stream builds a read stream of one full pass over an array of length n
// at the given width under the shape's placement.
func (p *ShapeParams) stream(n uint64, bits uint, kind perfmodel.StreamKind, times float64) perfmodel.Stream {
	codec := bitpack.MustNew(bits)
	return perfmodel.Stream{
		Kind:      kind,
		Bytes:     float64(codec.CompressedBytes(n)) * times,
		Placement: p.Layout.Placement,
		Socket:    p.Layout.Socket,
	}
}

// randomStreamFor builds the gather stream for n accesses into an array of
// length len at the given width.
func (p *ShapeParams) randomStreamFor(spec *machine.Spec, length uint64, bits uint, n float64, boost float64) perfmodel.Stream {
	codec := bitpack.MustNew(bits)
	arrayBytes := float64(codec.CompressedBytes(length))
	elemBytes := arrayBytes / float64(length)
	eff := perfmodel.RandomReadBytes(arrayBytes, elemBytes, spec.LLCMB*1e6, boost)
	return perfmodel.Stream{
		Kind:      perfmodel.Read,
		Bytes:     n * eff,
		Placement: p.Layout.Placement,
		Socket:    p.Layout.Socket,
	}
}

// DegreeWorkloadFor is the allocation-free equivalent of the workload
// DegreeCentrality returns: one streaming pass over begin and rbegin plus
// the interleaved 64-bit output write.
func DegreeWorkloadFor(p ShapeParams) perfmodel.Workload {
	bb, _ := p.widths()
	perVertex := 2*perfmodel.CostStream(bb) + perfmodel.CostInitU64 + 2
	return perfmodel.Workload{
		Instructions: float64(p.V) * perVertex,
		Streams: []perfmodel.Stream{
			p.stream(p.V+1, bb, perfmodel.Read, 1),
			p.stream(p.V+1, bb, perfmodel.Read, 1),
			interleavedWrite(float64(p.V) * 8),
		},
	}
}

// PageRankWorkloadFor is the allocation-free equivalent of the workload
// PageRank returns, for Iters iterations at the shape's sizes: per
// iteration one streamed pass over rbegin and redge and one batched gather
// per edge (the contribution rank*inverse-degree, power-law locality); per
// vertex the old-rank and inverse-degree reads and the next-rank and
// next-contribution writes. The divide and the multiply by the inverse
// degree are per-vertex work, so DegreeBits affects footprint and
// initialization, not the per-edge instruction stream.
func PageRankWorkloadFor(spec *machine.Spec, p ShapeParams) perfmodel.Workload {
	bb, eb := p.widths()
	it := float64(p.Iters)
	e := float64(p.E)
	v := float64(p.V)

	perEdge := perfmodel.CostStream(eb) + perfmodel.CostGather(64) + 1
	perVertex := perfmodel.CostStream(bb) + 2*perfmodel.CostStream(64) + 2*perfmodel.CostInit(64) + 9

	return perfmodel.Workload{
		Instructions: it * (e*perEdge + v*perVertex),
		Streams: []perfmodel.Stream{
			p.stream(p.V+1, bb, perfmodel.Read, it),
			p.stream(p.E, eb, perfmodel.Read, it),
			p.randomStreamFor(spec, p.V, 64, it*e, perfmodel.PowerLawLocalityBoost),
			p.stream(p.V, 64, perfmodel.Read, 2*it),  // old rank + inverse degree
			p.stream(p.V, 64, perfmodel.Write, 2*it), // next rank + next contribution
		},
	}
}

// PageRankMemoryBytes evaluates the paper's memory space formula for a
// PageRank dataset (§5.2): 2·bits_edges·V + 2·bits_vertices·E +
// bits_degrees·V + 64·V, in bytes — begin/rbegin, edge/redge, the
// out-degrees property and the ranks.
func PageRankMemoryBytes(p ShapeParams) uint64 {
	bb, eb := p.widths()
	degBits := p.DegreeBits
	if degBits == 0 {
		degBits = 64
	}
	beginBytes := bitpack.MustNew(bb).CompressedBytes(p.V + 1)
	edgeBytes := bitpack.MustNew(eb).CompressedBytes(p.E)
	degBytes := bitpack.MustNew(degBits).CompressedBytes(p.V)
	rankBytes := p.V * 8
	return 2*beginBytes + 2*edgeBytes + degBytes + rankBytes
}
