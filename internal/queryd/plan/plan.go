// Package plan parses and validates query requests for the query-service
// data plane. A request is one JSON object naming a dataset, an operation
// over it, and admission metadata (priority, tenant, deadline); Parse
// turns it into a typed Plan the executor can run without re-validating.
//
// Operations and their fields:
//
//	aggregate  agg, column, where?     SELECT agg(column) WHERE where...
//	groupby    key, agg, column, where?  ... GROUP BY key
//	pagerank   iters?                  PageRank over the dataset's graph
//	bfs        source?                 BFS levels from source
//	degree                             degree centrality over the graph
//
// Predicate operators use the same symbols colstore prints: = != < <= > >=.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"smartarrays/internal/colstore"
)

// Op identifies a query operation.
type Op string

// Supported operations.
const (
	OpAggregate Op = "aggregate"
	OpGroupBy   Op = "groupby"
	OpPageRank  Op = "pagerank"
	OpBFS       Op = "bfs"
	OpDegree    Op = "degree"
)

// MaxPageRankIters bounds per-query PageRank work so one request cannot
// monopolize the pool for an unbounded number of iterations.
const MaxPageRankIters = 100

// request is the wire form. Unknown fields are rejected so client typos
// (e.g. "colunm") fail loudly instead of silently scanning the wrong
// thing.
type request struct {
	Dataset string      `json:"dataset"`
	Op      string      `json:"op"`
	Agg     string      `json:"agg"`
	Column  string      `json:"column"`
	Key     string      `json:"key"`
	Where   []wherePred `json:"where"`
	Iters   *int        `json:"iters"`
	Source  *uint64     `json:"source"`

	Priority   *int   `json:"priority"`
	Tenant     string `json:"tenant"`
	DeadlineMS *int64 `json:"deadline_ms"`
	Explain    bool   `json:"explain"`
}

type wherePred struct {
	Column string `json:"column"`
	Op     string `json:"op"`
	Value  uint64 `json:"value"`
}

// Plan is a validated query ready for execution.
type Plan struct {
	Dataset string
	Op      Op

	// Aggregate/GroupBy fields.
	Agg    colstore.Agg
	Column string
	Key    string
	Preds  []colstore.Pred

	// Graph fields.
	Iters  int    // pagerank iteration bound
	Source uint64 // bfs source vertex

	// Admission metadata.
	Priority   int
	Tenant     string
	DeadlineMS int64 // 0 = use the server's default queue deadline

	// Explain requests the query's execution profile inline in the
	// response (EXPLAIN ANALYZE). It bypasses the result cache and the
	// flight table — a cached or borrowed answer has no execution to show.
	Explain bool
}

// aggByName maps wire names onto colstore aggregates.
var aggByName = map[string]colstore.Agg{
	"sum":   colstore.Sum,
	"count": colstore.Count,
	"min":   colstore.Min,
	"max":   colstore.Max,
}

// AggName renders a colstore aggregate in wire form.
func AggName(a colstore.Agg) string {
	for name, v := range aggByName {
		if v == a {
			return name
		}
	}
	return fmt.Sprintf("agg(%d)", int(a))
}

// cmpByName maps wire operator symbols onto colstore comparisons.
var cmpByName = map[string]colstore.CmpOp{
	"=": colstore.Eq, "==": colstore.Eq,
	"!=": colstore.Ne,
	"<":  colstore.Lt,
	"<=": colstore.Le,
	">":  colstore.Gt,
	">=": colstore.Ge,
}

// Parse decodes and validates one query request.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("plan: decoding request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("plan: trailing data after request object")
	}
	if req.Dataset == "" {
		return nil, fmt.Errorf("plan: missing dataset")
	}

	p := &Plan{Dataset: req.Dataset, Op: Op(req.Op), Tenant: req.Tenant, Explain: req.Explain}
	if req.Priority != nil {
		p.Priority = *req.Priority
	}
	if req.DeadlineMS != nil {
		if *req.DeadlineMS <= 0 {
			return nil, fmt.Errorf("plan: deadline_ms must be positive, got %d", *req.DeadlineMS)
		}
		p.DeadlineMS = *req.DeadlineMS
	}

	switch p.Op {
	case OpAggregate:
		if err := p.parseAgg(&req, false); err != nil {
			return nil, err
		}
	case OpGroupBy:
		if err := p.parseAgg(&req, true); err != nil {
			return nil, err
		}
	case OpPageRank:
		p.Iters = 20
		if req.Iters != nil {
			p.Iters = *req.Iters
		}
		if p.Iters <= 0 || p.Iters > MaxPageRankIters {
			return nil, fmt.Errorf("plan: pagerank iters %d out of range [1,%d]", p.Iters, MaxPageRankIters)
		}
	case OpBFS:
		if req.Source != nil {
			p.Source = *req.Source
		}
	case OpDegree:
		// No operands.
	case "":
		return nil, fmt.Errorf("plan: missing op")
	default:
		return nil, fmt.Errorf("plan: unknown op %q (want aggregate, groupby, pagerank, bfs, or degree)", req.Op)
	}
	return p, nil
}

// parseAgg handles the fields shared by aggregate and groupby.
func (p *Plan) parseAgg(req *request, grouped bool) error {
	agg, ok := aggByName[req.Agg]
	if !ok {
		return fmt.Errorf("plan: unknown agg %q (want sum, count, min, or max)", req.Agg)
	}
	p.Agg = agg
	if req.Column == "" {
		return fmt.Errorf("plan: %s requires a column", p.Op)
	}
	p.Column = req.Column
	if grouped {
		if req.Key == "" {
			return fmt.Errorf("plan: groupby requires a key column")
		}
		p.Key = req.Key
	} else if req.Key != "" {
		return fmt.Errorf("plan: aggregate does not take a key (did you mean groupby?)")
	}
	for _, wp := range req.Where {
		op, ok := cmpByName[wp.Op]
		if !ok {
			return fmt.Errorf("plan: unknown predicate op %q (want = != < <= > >=)", wp.Op)
		}
		if wp.Column == "" {
			return fmt.Errorf("plan: predicate missing column")
		}
		p.Preds = append(p.Preds, colstore.Pred{Column: wp.Column, Op: op, Value: wp.Value})
	}
	return nil
}

// String renders a compact query description for logs and profiles.
// Every served query's profile carries one, so it is built by
// concatenation: one allocation, where fmt boxes every argument.
func (p *Plan) String() string {
	switch p.Op {
	case OpAggregate:
		return AggName(p.Agg) + "(" + p.Column + ") on " + p.Dataset + " (" + strconv.Itoa(len(p.Preds)) + " preds)"
	case OpGroupBy:
		return AggName(p.Agg) + "(" + p.Column + ") by " + p.Key + " on " + p.Dataset + " (" + strconv.Itoa(len(p.Preds)) + " preds)"
	case OpPageRank:
		return "pagerank(" + strconv.Itoa(p.Iters) + " iters) on " + p.Dataset
	case OpBFS:
		return "bfs(from " + strconv.FormatUint(p.Source, 10) + ") on " + p.Dataset
	default:
		return string(p.Op) + " on " + p.Dataset
	}
}
