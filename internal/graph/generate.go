package graph

import (
	"fmt"
	"math/rand"
)

// GenerateUniform creates a directed graph with numVertices vertices and
// degree random out-edges per vertex — the "large custom graph ... 3 random
// edges per vertex" of the paper's degree centrality experiment (§5.2).
func GenerateUniform(numVertices uint64, degree int, seed int64) (*CSR, error) {
	if numVertices == 0 || degree < 0 {
		return nil, fmt.Errorf("graph: bad uniform parameters n=%d degree=%d", numVertices, degree)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge32, 0, numVertices*uint64(degree))
	for v := uint64(0); v < numVertices; v++ {
		for k := 0; k < degree; k++ {
			edges = append(edges, Edge32{Src: uint32(v), Dst: uint32(rng.Int63n(int64(numVertices)))})
		}
	}
	return Build(numVertices, edges)
}

// GeneratePowerLaw creates a directed graph whose in-degree distribution
// follows a Zipf law with exponent alpha — the synthetic stand-in for the
// paper's Twitter followers graph (42M vertices, 1.5B edges, heavily
// skewed in-degrees). See PowerLawEdges for the edge list it builds.
func GeneratePowerLaw(numVertices uint64, avgDegree int, alpha float64, seed int64) (*CSR, error) {
	edges, err := PowerLawEdges(numVertices, avgDegree, alpha, seed)
	if err != nil {
		return nil, err
	}
	return Build(numVertices, edges)
}

// PowerLawEdges generates GeneratePowerLaw's edge list, for builds that lay
// it out themselves (BuildSmart): avgDegree edges per vertex with
// Zipf-distributed destinations and uniform sources, the destinations
// shuffled through a pseudo-random permutation so hub IDs are spread
// across the ID space.
func PowerLawEdges(numVertices uint64, avgDegree int, alpha float64, seed int64) ([]Edge32, error) {
	if numVertices < 2 || avgDegree < 1 {
		return nil, fmt.Errorf("graph: bad power-law parameters n=%d avgDegree=%d", numVertices, avgDegree)
	}
	if alpha <= 1 {
		return nil, fmt.Errorf("graph: zipf exponent must be > 1, got %v", alpha)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, alpha, 1, numVertices-1)
	// Spread hubs across the ID space with an affine permutation
	// (odd multiplier mod n is a bijection for power-of-two n; for general
	// n use a large odd multiplier and accept near-uniform spreading via
	// modular multiplication of a coprime).
	perm := func(v uint64) uint64 {
		return (v*2654435761 + 12345) % numVertices
	}
	numEdges := numVertices * uint64(avgDegree)
	edges := make([]Edge32, 0, numEdges)
	for i := uint64(0); i < numEdges; i++ {
		dst := perm(zipf.Uint64())
		src := uint64(rng.Int63n(int64(numVertices)))
		edges = append(edges, Edge32{Src: uint32(src), Dst: uint32(dst)})
	}
	return edges, nil
}

// GenerateRing creates a directed cycle 0->1->...->n-1->0; handy for tests
// with exactly known degrees and PageRank fixed points.
func GenerateRing(numVertices uint64) (*CSR, error) {
	if numVertices < 2 {
		return nil, fmt.Errorf("graph: ring needs >= 2 vertices, got %d", numVertices)
	}
	edges := make([]Edge32, numVertices)
	for v := uint64(0); v < numVertices; v++ {
		edges[v] = Edge32{Src: uint32(v), Dst: uint32((v + 1) % numVertices)}
	}
	return Build(numVertices, edges)
}

// GenerateGrid creates a directed w x h grid with right and down edges;
// used by traversal tests (known BFS levels).
func GenerateGrid(w, h uint64) (*CSR, error) {
	if w == 0 || h == 0 {
		return nil, fmt.Errorf("graph: empty grid %dx%d", w, h)
	}
	var edges []Edge32
	at := func(x, y uint64) uint32 { return uint32(y*w + x) }
	for y := uint64(0); y < h; y++ {
		for x := uint64(0); x < w; x++ {
			if x+1 < w {
				edges = append(edges, Edge32{Src: at(x, y), Dst: at(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, Edge32{Src: at(x, y), Dst: at(x, y+1)})
			}
		}
	}
	return Build(w*h, edges)
}
