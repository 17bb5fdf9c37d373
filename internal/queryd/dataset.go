// Dataset construction for the query service: a named bundle of one
// column-store table and one smart-array CSR graph, built once at startup
// (or through the control plane) and served read-only afterwards — the
// paper's frozen-after-init array contract is what makes lock-free
// concurrent scans sound.
package queryd

import (
	"fmt"

	"smartarrays/internal/analytics"
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

// BuildDataset materializes spec into rt's memory. Columns:
//
//	id      row number (monotone; selective range predicates)
//	region  16-value dense key (exercises the GroupBy fast path)
//	amount  pseudo-uniform in [0, 65536) (the aggregation target)
//	flag    0/1 at ~25% selectivity (cheap predicate column)
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
func BuildDataset(rt *rts.Runtime, spec DatasetSpec) (*Dataset, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("queryd: dataset needs a name")
	}
	if spec.Rows == 0 && spec.Vertices == 0 {
		return nil, fmt.Errorf("queryd: dataset %q is empty (zero rows and vertices)", spec.Name)
	}
	d := &Dataset{Name: spec.Name, Rows: spec.Rows, Vertices: spec.Vertices}

	if spec.Rows > 0 {
		tbl, err := colstore.NewTable(rt, spec.Rows)
		if err != nil {
			return nil, err
		}
		d.Table = tbl
		id, region := make([]uint64, spec.Rows), make([]uint64, spec.Rows)
		amount, flag := make([]uint64, spec.Rows), make([]uint64, spec.Rows)
		x := spec.Seed | 1
		for i := range id {

			x = xorshift64(x)
			id[i] = uint64(i)
			region[i] = x % 16
			amount[i] = (x >> 16) % 65536
			flag[i] = (x >> 40) & 3 / 3 // 1 on ~25% of rows
		}
		opts := colstore.Options{Placement: memsim.Interleaved}
		cols := map[string][]uint64{"id": id, "region": region, "amount": amount, "flag": flag}
		for _, name := range []string{"id", "region", "amount", "flag"} {
			values := cols[name]
			col, err := tbl.AddColumn(name, values, opts)
			if err != nil {
				d.Free()
				return nil, err
			}
			var sum uint64
			for _, v := range values {
				sum += v
			}
			d.Columns = append(d.Columns, ColumnMeta{Name: name, Bits: col.Array().Bits(), Sum: sum})
		}
	}

	if spec.Vertices > 0 {
		deg := spec.Degree
		if deg <= 0 {
			deg = defaultGraphDegree
		}
		csr, err := graph.GeneratePowerLaw(spec.Vertices, deg, graphExponent, int64(spec.Seed)+1)
		if err != nil {
			d.Free()
			return nil, err
		}
		sg, err := graph.NewSmartCSR(rt.Memory(), csr, graph.Layout{
			Placement:     memsim.Interleaved,
			CompressBegin: true,
		})
		if err != nil {
			d.Free()
			return nil, err
		}
		d.Graph = sg
		d.Edges = sg.NumEdges
		if d.Ranker, err = analytics.NewPageRanker(rt, sg, 64); err != nil {
			d.Free()
			return nil, err
		}
	}
	return d, nil
}
