package main

import (
	"sort"
	"time"
)

// span is one traced interval. Times are nanoseconds since the traced pass
// began; Parent is a span ID, 0 for a root; spans of one request share
// RequestID.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
	Workload  string `json:"workload"`
}

// Span names, outermost first. request and server.wall are timed on the
// wire; the rest are in-process replays of the same plan on an idle host,
// laid inside server.wall from its start: their lengths are measured,
// their positions are not.
const (
	spanRequest    = "request"
	spanServerWall = "server.wall"
	spanPlanParse  = "plan.parse"
	spanExec       = "colstore.exec"
	spanPageRank   = "analytics.pagerank"
	spanKernels    = "core.kernels"
	spanDispatch   = "rts.dispatch"
)

// tracedReq is one request of the traced pass as the client saw it.
type tracedReq struct {
	body   []byte
	start  time.Duration // since the pass began
	lat    time.Duration
	wall   time.Duration // the reply's wall_ms
	cached bool
	shared bool
}

// replay is what re-running a traced request's plan in-process measured.
type replay struct {
	parse, exec, kernels, dispatch time.Duration
	// graph replays carry PageRank's outcome for comparison with the reply.
	graph   bool
	iters   int
	rankSum float64
}

// traceLog holds a workload's spans in memory until the benchmark ends.
type traceLog struct {
	workload string
	spans    []span
}

func (t *traceLog) add(name string, start, end time.Duration, parent, request int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(), Parent: parent, RequestID: request, Workload: t.workload})
	return id
}

// addRequest records the wire spans of one request and, when its plan was
// replayed, the replay spans under them. The server does not say when in
// the round trip it worked, so server.wall is centred in request.
func (t *traceLog) addRequest(requestID int, r tracedReq, rp *replay) {
	req := t.add(spanRequest, r.start, r.start+r.lat, 0, requestID)
	wall := min(r.wall, r.lat)
	ws := r.start + (r.lat-wall)/2
	srv := t.add(spanServerWall, ws, ws+wall, req, requestID)
	if rp == nil {
		return
	}
	t.add(spanPlanParse, ws, ws+rp.parse, srv, requestID)
	if r.cached {
		return // a cache hit executed nothing
	}
	name := spanExec
	if rp.graph {
		name = spanPageRank
	}
	es := ws + rp.parse
	exec := t.add(name, es, es+rp.exec, srv, requestID)
	if !rp.graph {
		t.add(spanKernels, es, es+rp.kernels, exec, requestID)
	}
	t.add(spanDispatch, es, es+rp.dispatch, exec, requestID)
}

// selfTimesMS totals, per span name, each span's duration minus the part
// of it its children cover (children are clipped to the parent and their
// overlaps counted once).
func selfTimesMS(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return self
}
