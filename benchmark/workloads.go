package main

import (
	"fmt"
	"math"
	"sort"
)

// Dataset sizing of the system under test: 4 M rows pack to about 21 MB
// (beyond L2), the graph has 800 k edges.
const (
	datasetName     = "demo"
	datasetRows     = 1 << 22
	datasetVertices = 100000
	// amount is pseudo-uniform in [0, 65536) within every 64-row chunk.
	// Thresholds stay in the middle three quarters of that domain: nearer
	// an end, a chunk's min or max starts to decide the predicate alone and
	// the zone index prunes it.
	thresholdLo   = 1 << 13
	thresholdSpan = 3 << 14

	// numClients closed-loop callers, one keep-alive connection each.
	numClients = 2

	hotPlans    = 256 // distinct repeat_hot plans, far below the 1024-entry cache
	zipfS       = 1.1
	rankIters   = 5
	rankRequest = `{"dataset":"demo","op":"pagerank","iters":5,"explain":true}`
)

// splitmix64 is the counter-based generator behind every seeded choice: the
// n-th request of a workload depends on (seed, n) alone, not on which
// client asks or when.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// datasetSeed derives the server's data seed from the workload seed, so the
// two never coincide by construction of the caller.
func datasetSeed(seed uint64) uint64 { return splitmix64(seed)>>33 | 1 }

// generator produces one workload's request stream as a pure function of
// the seed.
type generator struct {
	workload string
	seed     uint64
	// hot is the repeat_hot plan pool, zipfCDF its rank distribution.
	hot     [][]byte
	zipfCDF []float64
}

func newGenerator(workload string, seed uint64) *generator {
	g := &generator{workload: workload, seed: splitmix64(seed ^ 0x5a17)}
	if workload == wlRepeatHot {
		g.hot = make([][]byte, hotPlans)
		g.zipfCDF = make([]float64, hotPlans)
		var total float64
		for k := range g.hot {
			g.hot[k] = scanUniqueBody(g.seed, uint64(k))
			total += 1 / math.Pow(float64(k+1), zipfS)
			g.zipfCDF[k] = total
		}
		for k := range g.zipfCDF {
			g.zipfCDF[k] /= total
		}
	}
	return g
}

// prefill lists the requests to issue once before any timing: the whole
// hot pool for repeat_hot, nothing otherwise.
func (g *generator) prefill() [][]byte { return g.hot }

// body is the n-th request of the stream. Callers give every request of a
// server's lifetime a distinct n, which is what makes the scan workloads
// cache misses.
func (g *generator) body(n uint64) []byte {
	switch g.workload {
	case wlRepeatHot:
		u := float64(splitmix64(g.seed+n)>>11) / (1 << 53)
		return g.hot[min(sort.SearchFloat64s(g.zipfCDF, u), hotPlans-1)]
	case wlScanUnique:
		return scanUniqueBody(g.seed, n)
	case wlScanSelective:
		return scanSelectiveBody(g.seed, n)
	default:
		return []byte(rankRequest)
	}
}

// scanUniqueBody builds one of four predicated templates with a threshold
// on amount that no other n < 4*thresholdSpan shares: a multiplier coprime
// to the span permutes it, so thresholds are distinct and evenly spread.
func scanUniqueBody(seed, n uint64) []byte {
	template, k := n%4, n/4
	t := thresholdLo + (seed%thresholdSpan+k*40507)%thresholdSpan
	switch template {
	case 0:
		return []byte(fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount","where":[{"column":"amount","op":"<","value":%d}]}`, t))
	case 1:
		return []byte(fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"count","column":"id","where":[{"column":"amount","op":">=","value":%d},{"column":"flag","op":"=","value":1}]}`, t))
	case 2:
		return []byte(fmt.Sprintf(`{"dataset":"demo","op":"groupby","key":"region","agg":"sum","column":"amount","where":[{"column":"amount","op":">","value":%d}]}`, t))
	default:
		return []byte(fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"max","column":"id","where":[{"column":"amount","op":"<=","value":%d},{"column":"region","op":"<","value":%d}]}`, t, 1+splitmix64(seed^k)%15))
	}
}

// scanSelectiveBody builds an id-range predicate 64..4096 rows wide whose
// lower edge no other n < 2^22 shares (odd multiplier, 22-bit domain).
// id is the row number, so the zone index prunes all but the one to
// sixty-five chunks the window touches.
func scanSelectiveBody(seed, n uint64) []byte {
	lo := (seed + n*2654435761) % datasetRows
	width := uint64(64) << (splitmix64(seed^n) % 7)
	if n%2 == 0 {
		return []byte(fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount","where":[{"column":"id","op":">=","value":%d},{"column":"id","op":"<","value":%d}]}`, lo, lo+width))
	}
	return []byte(fmt.Sprintf(`{"dataset":"demo","op":"groupby","key":"region","agg":"sum","column":"amount","where":[{"column":"id","op":">=","value":%d},{"column":"id","op":"<","value":%d}]}`, lo, lo+width))
}
