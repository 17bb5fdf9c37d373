// Package graph provides the in-memory graph substrate the paper evaluates
// on (PGX, §2.3, §5.2): compressed sparse row (CSR) graphs with forward and
// reverse edge arrays, generators for synthetic workloads (including the
// power-law graphs that stand in for the Twitter dataset), simple text I/O,
// and a smart-array-backed representation whose placement and compression
// are configurable per the paper's Figure 11/12 variants.
//
// Layout follows the paper exactly: each vertex has a 32-bit ID; edge
// concatenates the neighbour lists of all vertices in ascending order;
// begin (64-bit) holds, per vertex, the index of its first edge; rbegin /
// redge hold the reverse edges for directed graphs.
package graph

import (
	"errors"
	"fmt"
)

// CSR is a directed graph in compressed sparse row form, the plain
// (non-smart-array) representation the paper calls "original".
type CSR struct {
	// NumVertices and NumEdges size the graph.
	NumVertices uint64
	NumEdges    uint64
	// Begin[v] is the index in Edge of v's first out-edge; Begin has
	// NumVertices+1 entries so that Begin[v+1]-Begin[v] is v's out-degree.
	Begin []uint64
	// Edge holds destination vertex IDs, grouped by source.
	Edge []uint32
	// RBegin/REdge are the reverse (incoming) adjacency, same shape.
	RBegin []uint64
	REdge  []uint32
}

// Edge32 is one directed edge with 32-bit endpoints.
type Edge32 struct {
	Src, Dst uint32
}

// Build constructs a CSR (with reverse arrays) from an edge list over
// numVertices vertices. Endpoints must be < numVertices. Neighbour lists
// are sorted ascending, as PGX stores them. Build consumes edges: it
// reorders them and overwrites their Dst fields (countingSort).
func Build(numVertices uint64, edges []Edge32) (*CSR, error) {
	if err := checkVertexCount(numVertices); err != nil {
		return nil, err
	}
	g := &CSR{
		NumVertices: numVertices,
		NumEdges:    uint64(len(edges)),
		Edge:        make([]uint32, len(edges)),
		REdge:       make([]uint32, len(edges)),
	}
	var err error
	if g.Begin, g.RBegin, err = countingSort(numVertices, edges, g); err != nil {
		return nil, err
	}
	for k, e := range edges {
		g.REdge[k] = e.Dst
	}
	return g, nil
}

// checkVertexCount refuses vertex counts a CSR cannot index.
func checkVertexCount(numVertices uint64) error {
	if numVertices == 0 {
		return errors.New("graph: empty vertex set")
	}
	if numVertices > 1<<32 {
		return fmt.Errorf("graph: %d vertices exceed 32-bit vertex IDs", numVertices)
	}
	return nil
}

// OutDegree is the number of out-edges of v.
func (g *CSR) OutDegree(v uint32) uint64 { return g.Begin[v+1] - g.Begin[v] }

// InDegree is the number of in-edges of v.
func (g *CSR) InDegree(v uint32) uint64 { return g.RBegin[v+1] - g.RBegin[v] }

// OutNeighbors returns v's out-neighbour list (shared storage; read-only).
func (g *CSR) OutNeighbors(v uint32) []uint32 { return g.Edge[g.Begin[v]:g.Begin[v+1]] }

// InNeighbors returns v's in-neighbour list (shared storage; read-only).
func (g *CSR) InNeighbors(v uint32) []uint32 { return g.REdge[g.RBegin[v]:g.RBegin[v+1]] }

// Validate checks CSR invariants: monotone begin arrays, matching edge
// counts, sorted neighbour lists, and forward/reverse consistency of edge
// multiset sizes.
func (g *CSR) Validate() error {
	if uint64(len(g.Begin)) != g.NumVertices+1 || uint64(len(g.RBegin)) != g.NumVertices+1 {
		return errors.New("graph: begin array length mismatch")
	}
	if g.Begin[0] != 0 || g.RBegin[0] != 0 {
		return errors.New("graph: begin arrays must start at 0")
	}
	if g.Begin[g.NumVertices] != g.NumEdges || g.RBegin[g.NumVertices] != g.NumEdges {
		return errors.New("graph: begin arrays must end at NumEdges")
	}
	for v := uint64(0); v < g.NumVertices; v++ {
		if g.Begin[v] > g.Begin[v+1] || g.RBegin[v] > g.RBegin[v+1] {
			return fmt.Errorf("graph: begin arrays not monotone at vertex %d", v)
		}
		ns := g.Edge[g.Begin[v]:g.Begin[v+1]]
		for i := 1; i < len(ns); i++ {
			if ns[i-1] > ns[i] {
				return fmt.Errorf("graph: neighbour list of %d not sorted", v)
			}
		}
	}
	return nil
}

// MaxVertexID returns the largest vertex ID referenced by edges (useful for
// the paper's minimum-bits compression of edge arrays).
func (g *CSR) MaxVertexID() uint32 {
	var max uint32
	for _, d := range g.Edge {
		if d > max {
			max = d
		}
	}
	for _, s := range g.REdge {
		if s > max {
			max = s
		}
	}
	return max
}
