// Dataset construction for the query service: a named bundle of one
// column-store table and one smart-array CSR graph, built once at startup
// (or through the control plane) and served read-only afterwards — the
// paper's frozen-after-init array contract is what makes lock-free
// concurrent scans sound.
package queryd

import (
	"fmt"
	"math"
	"math/bits"

	"smartarrays/internal/analytics"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/graph"
	"smartarrays/internal/memsim"
	"smartarrays/internal/rts"
)

// DatasetSpec sizes a synthetic dataset. The generator is deterministic
// for a given spec, so build-time checksums double as end-to-end
// correctness oracles for the load harness.
type DatasetSpec struct {
	Name string `json:"name"`
	// Rows is the table length. 0 skips the table.
	Rows uint64 `json:"rows"`
	// Vertices is the graph size. 0 skips the graph.
	Vertices uint64 `json:"vertices"`
	// Degree is the graph's average out-degree (default 8).
	Degree int `json:"degree"`
	// Seed perturbs the generated values.
	Seed uint64 `json:"seed"`
}

// ColumnMeta describes one table column for /datasets consumers.
type ColumnMeta struct {
	Name string `json:"name"`
	Bits uint   `json:"bits"`
	// Sum is the build-time column sum — the oracle saload's spot check
	// compares an unpredicated sum(column) aggregate against.
	Sum uint64 `json:"sum"`
}

// Dataset is one served table+graph bundle. Immutable after Build.
type Dataset struct {
	Name     string
	Table    *colstore.Table
	Graph    *graph.SmartCSR
	Rows     uint64
	Vertices uint64
	Edges    uint64
	Columns  []ColumnMeta

	// Ranker serves pagerank over Graph at 64-bit out-degrees: the graph's
	// PageRank invariants, built with the graph, and the rank arrays each
	// run leases.
	Ranker *analytics.PageRanker
}

// Meta is the /datasets wire form.
type Meta struct {
	Name     string       `json:"name"`
	Rows     uint64       `json:"rows"`
	Vertices uint64       `json:"vertices"`
	Edges    uint64       `json:"edges"`
	Columns  []ColumnMeta `json:"columns"`
}

// Meta returns the dataset's wire description.
func (d *Dataset) Meta() Meta {
	return Meta{Name: d.Name, Rows: d.Rows, Vertices: d.Vertices, Edges: d.Edges, Columns: d.Columns}
}

// Free releases the dataset's simulated memory. No query may be running
// on it.
func (d *Dataset) Free() {
	if d.Ranker != nil {
		d.Ranker.Free()
	}
	if d.Table != nil {
		d.Table.Free()
	}
	if d.Graph != nil {
		d.Graph.Free()
	}
}

// xorshift64 is the deterministic value generator for synthetic columns.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// The served graph's generator parameters: the average out-degree when
// the spec leaves Degree at 0, and the power-law exponent.
const (
	defaultGraphDegree = 8
	graphExponent      = 2.1
)

// tableColumn is one synthetic column: its declared width, which covers
// every value the generator can produce, and its value for a row given
// that row's state in the xorshift sequence.
type tableColumn struct {
	name  string
	bits  uint
	value func(row, x uint64) uint64
}

// tableColumns lists the served table's columns in definition order.
func tableColumns(rows uint64) []tableColumn {
	return []tableColumn{
		{"id", bitpack.MinBits(rows - 1), func(row, _ uint64) uint64 { return row }},
		{"region", 4, func(_, x uint64) uint64 { return x % 16 }},
		{"amount", 16, func(_, x uint64) uint64 { return (x >> 16) % 65536 }},
		{"flag", 1, func(_, x uint64) uint64 { return (x >> 40) & 3 / 3 }}, // 1 on ~25% of rows
	}
}

// BuildDataset materializes spec into rt's memory. Columns:
//
//	id      row number (monotone; selective range predicates)
//	region  16-value dense key (exercises the GroupBy fast path)
//	amount  pseudo-uniform in [0, 65536) (the aggregation target)
//	flag    0/1 at ~25% selectivity (cheap predicate column)
//
// Every column is generated straight into its packed array, one
// colstore.BuildWindow at a time: each replays the xorshift sequence from
// Seed|1 into the window and sums it on the way, at the width the
// generator's range declares. The build never holds a table-length slice
// of plain values: the table costs its packed payload plus one window.
//
// The graph is a Twitter-like power-law CSR in the paper's "V" layout —
// begin/rbegin bit-packed, edge/redge at 32 bits — interleaved like the
// table so concurrent scans spread across sockets, and comes with its
// PageRanker. The graph fits in the host's caches, so PageRank is
// compute-bound: a 32-bit edge stream splits each word in two, which is
// cheaper than the straddling-width decode "V+E" would need, and that
// outweighs the bandwidth "V+E" saves (the paper's Figure 12 saw the same
// on its 8-core machine). EXPERIMENTS.md "graph_rank at word width" has
// the measurement.
//
// The graph is built straight into its packed arrays (graph.BuildSmart):
// the generator runs once, and its edge list (8 B per edge) and the two
// begin arrays' prefix sums (8 B per vertex each) are the build's only
// graph-sized heap, dead once BuildSmart returns. It is built before the
// table: measured, a server built that way peaks ≈ 7 MB lower once it
// serves than one built table first (DESIGN.md §5f).
//
// A spec whose packed footprint the simulated memory cannot hold is
// refused before anything is generated.
func BuildDataset(rt *rts.Runtime, spec DatasetSpec) (*Dataset, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("queryd: dataset needs a name")
	}
	if spec.Rows == 0 && spec.Vertices == 0 {
		return nil, fmt.Errorf("queryd: dataset %q is empty (zero rows and vertices)", spec.Name)
	}
	if spec.Vertices > 1<<32 {
		return nil, fmt.Errorf("queryd: dataset %q: %d vertices exceed 32-bit vertex IDs", spec.Name, spec.Vertices)
	}
	if words, ok := footprintWords(spec); !ok || !rt.Memory().CanAlloc(words, memsim.Interleaved, 0) {
		return nil, fmt.Errorf("queryd: dataset %q does not fit in the machine's memory", spec.Name)
	}
	d := &Dataset{Name: spec.Name, Rows: spec.Rows, Vertices: spec.Vertices}
	if spec.Vertices > 0 {
		if err := d.buildGraph(rt, spec); err != nil {
			d.Free()
			return nil, err
		}
	}
	if spec.Rows > 0 {
		if err := d.buildTable(rt, spec); err != nil {
			d.Free()
			return nil, err
		}
	}
	return d, nil
}

// buildGraph generates the dataset's graph into its packed arrays and
// builds its PageRanker.
func (d *Dataset) buildGraph(rt *rts.Runtime, spec DatasetSpec) error {
	edges, err := graph.PowerLawEdges(spec.Vertices, spec.degree(), graphExponent, int64(spec.Seed)+1)
	if err != nil {
		return err
	}
	if d.Graph, err = graph.BuildSmart(rt.Memory(), spec.Vertices, edges, servedLayout); err != nil {
		return err
	}
	d.Edges = d.Graph.NumEdges
	d.Ranker, err = analytics.NewPageRanker(rt, d.Graph, rankerDegreeBits)
	return err
}

// buildTable generates the dataset's table, one column at a time.
func (d *Dataset) buildTable(rt *rts.Runtime, spec DatasetSpec) error {
	tbl, err := colstore.NewTable(rt, spec.Rows)
	if err != nil {
		return err
	}
	d.Table = tbl
	opts := colstore.Options{Placement: memsim.Interleaved}
	for _, c := range tableColumns(spec.Rows) {
		x, sum := spec.Seed|1, uint64(0)
		col, err := tbl.FillColumn(c.name, c.bits, opts, func(lo uint64, dst []uint64) {
			for i := range dst {
				x = xorshift64(x)
				dst[i] = c.value(lo+uint64(i), x)
				sum += dst[i]
			}
		})
		if err != nil {
			return err
		}
		d.Columns = append(d.Columns, ColumnMeta{Name: c.name, Bits: col.Array().Bits(), Sum: sum})
	}
	return nil
}

// degree is the graph's average out-degree, defaultGraphDegree when the
// spec leaves it at 0.
func (spec DatasetSpec) degree() int {
	if spec.Degree <= 0 {
		return defaultGraphDegree
	}
	return spec.Degree
}

// rankerDegreeBits is the width of the PageRanker's out-degree array.
const rankerDegreeBits = 64

// servedLayout is the served graph's layout: interleaved, begin/rbegin
// packed at the width of the edge count, edge/redge at 32 bits.
var servedLayout = graph.Layout{Placement: memsim.Interleaved, CompressBegin: true}

// footprintWords is spec's packed payload in 64-bit words: the table's
// columns at their declared widths, the graph's four arrays at
// servedLayout's widths, and the PageRanker's per-vertex arrays at its
// widths. ok is false when the count does not fit in memsim's byte
// arithmetic, which no machine could hold anyway.
func footprintWords(spec DatasetSpec) (words uint64, ok bool) {
	ok = true
	add := func(n uint64, width uint) {
		chunks := n/bitpack.ChunkSize + min(n%bitpack.ChunkSize, 1)
		hi, w := bits.Mul64(chunks, uint64(width))
		var carry uint64
		words, carry = bits.Add64(words, w, 0)
		ok = ok && hi == 0 && carry == 0
	}
	if spec.Rows > 0 {
		for _, c := range tableColumns(spec.Rows) {
			add(spec.Rows, c.bits)
		}
	}
	if spec.Vertices > 0 {
		hi, edges := bits.Mul64(spec.Vertices, uint64(spec.degree()))
		ok = ok && hi == 0
		beginBits, edgeBits := servedLayout.Widths(edges, spec.Vertices-1)
		for range 2 {
			add(spec.Vertices+1, beginBits)
			add(edges, edgeBits)
		}
		for _, width := range analytics.PageRankerWidths(rankerDegreeBits) {
			add(spec.Vertices, width)
		}
	}
	return words, ok && words <= math.MaxUint64/8
}
