// Package analytics implements the graph algorithms of the paper's
// evaluation (§5.2) — degree centrality and PageRank — plus the usual PGX
// companions (BFS, weakly-connected components, triangle counting), all
// running over smart-array CSR graphs through the Callisto-style runtime.
//
// DegreeCentrality, BFS and the one-shot PageRank also return a
// perfmodel.Workload: the arrays the run scanned (at their compressed
// widths and placements), gathered randomly and wrote. The figures price
// the paper's dataset sizes through ShapeParams and DegreeWorkloadFor /
// PageRankWorkloadFor instead, which need no graph in memory; a served
// PageRanker.Run builds no descriptor.
package analytics

import (
	"smartarrays/internal/core"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
)

// scanStream describes sequentially reading the whole array `times` times.
func scanStream(a *core.SmartArray, times float64) perfmodel.Stream {
	return perfmodel.Stream{
		Kind:      perfmodel.Read,
		Bytes:     float64(a.CompressedBytes()) * times,
		Placement: a.Placement(),
		Socket:    a.Region().PinnedSocket(),
	}
}

// randomStream describes n random element gathers from the array, with the
// LLC-credited per-access amplification of the model.
func randomStream(a *core.SmartArray, n float64, llcBytes float64, boost float64) perfmodel.Stream {
	elemBytes := float64(a.CompressedBytes()) / float64(a.Length())
	eff := perfmodel.RandomReadBytes(float64(a.CompressedBytes()), elemBytes, llcBytes, boost)
	return perfmodel.Stream{
		Kind:      perfmodel.Read,
		Bytes:     n * eff,
		Placement: a.Placement(),
		Socket:    a.Region().PinnedSocket(),
	}
}

// writeStream describes sequentially writing `times` full passes of the
// array. Replicated targets are charged per replica by the model.
func writeStream(a *core.SmartArray, times float64) perfmodel.Stream {
	return perfmodel.Stream{
		Kind:      perfmodel.Write,
		Bytes:     float64(a.CompressedBytes()) * times,
		Placement: a.Placement(),
		Socket:    a.Region().PinnedSocket(),
	}
}

// interleavedWrite describes writing bytes to an always-interleaved output
// array (the paper interleaves outputs in all experiments for fairness).
func interleavedWrite(bytes float64) perfmodel.Stream {
	return perfmodel.Stream{Kind: perfmodel.Write, Bytes: bytes, Placement: memsim.Interleaved}
}
