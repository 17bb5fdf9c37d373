// Package queryd is the query-service data plane: a stdlib HTTP+JSON
// front end that serves colstore aggregations and graph kernels
// concurrently over one smart-array runtime.
//
// Architecture (the control-plane/data-plane split):
//
//   - Data plane: POST /query parses a plan, passes admission control,
//     and executes on a priority-tagged runtime view. Concurrency comes
//     from the rts loop engine — every in-flight query's loops are
//     multiplexed onto the shared worker pool at batch granularity, so a
//     cheap high-priority aggregate overtakes a long PageRank instead of
//     queueing behind it. The hot path takes no lock: configuration and
//     the dataset catalog are read through one atomic snapshot pointer.
//   - Control plane: GET/POST /control/config reads and replaces the
//     admission/quota configuration (and can materialize new datasets);
//     changes build a fresh immutable snapshot offline and swap it in
//     atomically. The obs/serve introspection endpoints (/metrics,
//     /arrays, /trace, /decisions) mount on the same server.
//
// Endpoints:
//
//	POST /query           run one query (JSON body, see internal/queryd/plan)
//	GET  /healthz         liveness
//	GET  /datasets        dataset catalog with column checksums
//	GET  /stats           admission + latency statistics (JSON)
//	GET  /control/config  current admission/quota config
//	POST /control/config  swap config (and optionally add datasets)
//	GET  /metrics ...     obs/serve introspection (same mux)
package queryd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartarrays/internal/obs"
	"smartarrays/internal/obs/serve"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// QueryHistogram is the recorder histogram receiving one observation per
// 200 reply to /query, its profile's total_ns (arrival to reply, admission
// wait included); per-op histograms are named QueryHistogram + "." + op.
const QueryHistogram = "queryd.query"

// opHistograms holds each op's histogram name, built once so a served
// query does not build it.
var opHistograms = map[plan.Op]string{
	plan.OpAggregate: QueryHistogram + "." + string(plan.OpAggregate),
	plan.OpGroupBy:   QueryHistogram + "." + string(plan.OpGroupBy),
	plan.OpPageRank:  QueryHistogram + "." + string(plan.OpPageRank),
	plan.OpBFS:       QueryHistogram + "." + string(plan.OpBFS),
	plan.OpDegree:    QueryHistogram + "." + string(plan.OpDegree),
}

// QueueWaitHistogram is the recorder histogram receiving one admission
// delay observation per admitted query — how long it sat between arrival
// and holding an in-flight slot. /stats surfaces its quantiles next to
// in_flight/queued, so queue pressure is visible before it becomes 429s.
const QueueWaitHistogram = "queryd.queue_wait"

// Server is the query service. Create with NewServer, then Start (or
// mount Handler under a test server).
type Server struct {
	rt  *rts.Runtime
	rec *obs.Recorder
	reg *obs.ArrayRegistry

	// snap is the immutable config+catalog snapshot; the data plane loads
	// it exactly once per request.
	snap atomic.Pointer[snapshot]
	// ctlMu serializes control-plane writers (snapshot swaps); readers
	// never take it.
	ctlMu sync.Mutex

	adm *admission

	// cache is the bounded result LRU and the flight table (see cache.go).
	// Always allocated; the capacity in the current snapshot's config
	// decides whether the LRU is consulted, so a config swap can turn
	// caching on or off live. Flights are consulted whatever the capacity.
	cache *resultCache

	// slowlog retains finalized query profiles: the last N queries, the
	// over-threshold slow ring, and the top-K slowest — served at
	// /debug/slowlog and /debug/query/<id>.
	slowlog *obs.SlowLog
	// qid numbers every query (its profile's ID, the /debug/query/<id>
	// key).
	qid atomic.Uint64

	// served, errs4xx and errs5xx count /query replies by HTTP status
	// (reply is their one writer); the load gate requires errs5xx to stay
	// zero.
	served  atomic.Uint64
	errs4xx atomic.Uint64
	errs5xx atomic.Uint64
}

// NewServer builds a server over rt and registers the initial datasets.
// It attaches rec and reg to rt first (rts.Runtime.SetRecorder and
// SetArrayProfiling), so the datasets' arrays register with reg and every
// loop reports to both; the introspection endpoints serve the same two.
// Either may be nil: that half of the telemetry is off and its endpoints
// serve empty. It turns stealing on for rt once the datasets are built
// (see below), so do not run attribution-sensitive benchmarks on the same
// runtime afterwards.
func NewServer(rt *rts.Runtime, cfg Config, specs []DatasetSpec, rec *obs.Recorder, reg *obs.ArrayRegistry) (*Server, error) {
	s := &Server{rt: rt, rec: rec, reg: reg, adm: newAdmission(), cache: newResultCache(), slowlog: obs.NewSlowLog(0, 0, 0)}
	rt.SetRecorder(rec)
	rt.SetArrayProfiling(reg)

	// Datasets are built with stealing still off: initialization wants
	// stripe-faithful claiming's first-touch determinism.
	if err := s.apply(controlRequest{Config: &cfg, Datasets: specs}); err != nil {
		return nil, err
	}

	// Serving wants throughput, not attribution: from here on any free
	// worker may take any batch of any query's loop.
	rt.SetStealing(true)
	return s, nil
}

// Close closes the runtime — it waits for the loops in flight and refuses
// new ones — then frees every dataset: their payload is native memory the
// GC never reclaims. The HTTP listener must be closed first (Start's stop
// function does both, in order).
func (s *Server) Close() {
	s.rt.Close()
	for _, d := range s.snap.Load().datasets {
		d.Free()
	}
}

// Runtime returns the serving runtime (tests use it for direct-call
// comparisons; any number of goroutines may run loops on it, so calls are
// safe while serving).
func (s *Server) Runtime() *rts.Runtime { return s.rt }

// Dataset resolves a dataset from the current snapshot.
func (s *Server) Dataset(name string) (*Dataset, error) {
	return s.snap.Load().dataset(name)
}

// Config returns the current admission configuration.
func (s *Server) Config() Config {
	return s.snap.Load().cfg
}

// apply is the one control-plane write path. It validates req.Config
// (nil keeps the current config), rejects dataset names that repeat in
// req.Datasets or already exist, and builds every dataset, freeing all of
// them if one fails. Only then does it install one snapshot with the next
// version and kick the admission queue, so raised limits take effect
// immediately. A rejected request changes nothing. The builds' loops share
// the worker pool like any other work, so serving continues meanwhile.
//
// BuildDataset writes every column through one reused window straight
// into its packed array, so the garbage a build leaves is a window per
// column and the graph generator's edge list and plain CSR — small next
// to the payload it serves, and not worth forcing a collection to hand
// back to the OS before the next request.
func (s *Server) apply(req controlRequest) error {
	if req.Config != nil {
		if err := req.Config.Validate(); err != nil {
			return err
		}
	}
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	next := &snapshot{datasets: map[string]*Dataset{}}
	if old := s.snap.Load(); old != nil {
		next.cfg, next.version = old.cfg, old.version+1
		for k, v := range old.datasets {
			next.datasets[k] = v
		}
	}
	if req.Config != nil {
		next.cfg = *req.Config
	}
	named := map[string]bool{}
	for _, spec := range req.Datasets {
		if _, exists := next.datasets[spec.Name]; exists {
			return fmt.Errorf("queryd: dataset %q already exists", spec.Name)
		}
		if named[spec.Name] {
			return fmt.Errorf("queryd: duplicate dataset %q", spec.Name)
		}
		named[spec.Name] = true
	}
	built := make([]*Dataset, 0, len(req.Datasets))
	for _, spec := range req.Datasets {
		d, err := BuildDataset(s.rt, spec)
		if err != nil {
			for _, d := range built {
				d.Free()
			}
			return err
		}
		built = append(built, d)
	}
	for i, d := range built {
		next.datasets[req.Datasets[i].Name] = d
	}
	s.snap.Store(next)
	s.slowlog.SetThreshold(next.cfg.slowQueryThreshold())
	s.adm.Kick(next.cfg)
	return nil
}

// Handler returns the full mux: data plane, control plane, and the
// obs/serve introspection endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/query/", s.handleQueryLookup)
	mux.HandleFunc("/control/config", s.handleConfig)
	intro := serve.New(s.rec, s.reg, s.rt.Memory()).Handler()
	for _, path := range []string{"/metrics", "/arrays", "/trace", "/decisions"} {
		mux.Handle(path, intro)
	}
	return mux
}

// drainTimeout bounds how long Start's stop waits for requests in flight.
// It stays under the few seconds a supervisor typically grants between
// SIGTERM and SIGKILL.
const drainTimeout = 2 * time.Second

// Start binds addr (":0" picks a free port), serves in the background,
// and returns the bound address plus a stop function that closes the
// listener, lets the requests in flight finish (for up to drainTimeout)
// and then closes the runtime.
func (s *Server) Start(addr string) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("queryd: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: serve.ReadHeaderTimeout}
	go func() { _ = srv.Serve(l) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		s.Close()
		return err
	}
	return l.Addr().String(), stop, nil
}

// queryResponse is the /query wire envelope.
type queryResponse struct {
	Op       string  `json:"op"`
	Dataset  string  `json:"dataset"`
	QueryID  uint64  `json:"query_id"`
	Result   any     `json:"result"`
	WallMS   float64 `json:"wall_ms"`
	Priority int     `json:"priority"`
	// Cached marks a result served from the result cache (the query
	// skipped admission and execution entirely).
	Cached bool `json:"cached,omitempty"`
	// Shared marks a result answered by an identical plan that was
	// already executing: the query waited for that answer instead of
	// executing (and took no admission slot).
	Shared bool `json:"shared,omitempty"`
	// Profile is the inline execution profile, present only when the
	// request set "explain": true.
	Profile *obs.QueryProfile `json:"profile,omitempty"`
}

// errorResponse is the error wire envelope.
type errorResponse struct {
	Error   string `json:"error"`
	QueryID uint64 `json:"query_id,omitempty"`
}

// maxQueryBody bounds request bodies; plans are small.
const maxQueryBody = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Every query is profiled, its wall clock started at arrival. The
	// profile is the query's one record: reply finalizes it, and every
	// per-query series and the reply's wall_ms read it there.
	start := time.Now()
	prof := obs.NewQueryProfileAt(s.qid.Add(1), start)
	if r.Method != http.MethodPost {
		s.reply(w, prof, time.Now(), http.StatusMethodNotAllowed, errors.New("queryd: POST a query JSON body"), nil)
		return
	}
	// One snapshot load; the rest of the request sees a consistent
	// config+catalog no matter how many swaps land meanwhile.
	snap := s.snap.Load()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody))
	if err != nil {
		s.reply(w, prof, time.Now(), http.StatusBadRequest, err, nil)
		return
	}
	p, err := plan.Parse(body)
	if err != nil {
		s.reply(w, prof, time.Now(), http.StatusBadRequest, err, nil)
		return
	}
	prof.Op = string(p.Op)
	prof.Dataset = p.Dataset
	prof.Tenant = p.Tenant
	prof.Plan = p.String()
	// Stage times are contiguous laps from start: each stage ends where
	// the next begins and the profile finalizes at the instant the last
	// one closed (lapStart), so the stages tile the profile's wall time —
	// glue between them (dataset lookup, cache fill) lands in a stage
	// instead of a gap a descheduled handler could silently widen.
	lapStart := start
	lap := func(name string) time.Duration {
		now := time.Now()
		d := now.Sub(lapStart)
		lapStart = now
		prof.Stage(name, d)
		return d
	}
	lap("parse")
	ds, err := snap.dataset(p.Dataset)
	if err != nil {
		s.reply(w, prof, time.Now(), http.StatusNotFound, err, nil)
		return
	}

	// The cache and the flight table are consulted before admission: a hit
	// costs two map operations and skips the queue entirely, which is where
	// the repeated-query throughput win comes from, and a query whose twin
	// is executing waits for that answer without taking a slot — so it can
	// never be shed for another query's load. The key embeds the snapshot
	// version and the touched columns' generations, so a stale entry or
	// flight is unreachable by construction. Explain skips both: a cached
	// or borrowed answer has no execution to show, and an explained run
	// must not poison repeat-latency measurements with its own result.
	var (
		key            string
		result         any
		joined         *flight
		cacheable, hit bool
	)
	if p.Explain {
		prof.Cache = obs.CacheBypass
	} else {
		key, cacheable = cacheKey(snap, ds, p)
		if cacheable {
			result, joined, hit = s.cache.join(key, snap.cfg.CacheEntries)
		}
		switch {
		case !cacheable:
			prof.Cache = obs.CacheBypass
		case hit:
			prof.Cache = obs.CacheHit
		case joined != nil:
			prof.Cache = obs.CacheCoalesced
		case snap.cfg.CacheEntries > 0:
			prof.Cache = obs.CacheMiss
		default:
			prof.Cache = obs.CacheOff
		}
		lap("cache")
	}

	switch {
	case hit:
		// The cache answered: nothing to wait for or execute.
	case joined != nil:
		<-joined.done
		result, err = joined.result, joined.err
		lap("execute")
	default:
		err = s.adm.Acquire(snap.cfg, p.Tenant, p.DeadlineMS)
		prof.QueueWaitNs = uint64(lap("admission"))
		if err != nil {
			// Both shed and expired queries should back off about one
			// queue drain; the timeout is the honest upper bound.
			w.Header().Set("Retry-After", strconv.FormatInt((snap.cfg.QueueTimeoutMS+999)/1000, 10))
			s.reply(w, prof, lapStart, http.StatusTooManyRequests, err, nil)
			return
		}
		defer s.adm.ReleaseTenant(p.Tenant)
		// The slot is released against the *latest* config, so a raised
		// limit drains the queue at the new width.
		defer func() { s.adm.Release(s.snap.Load().cfg) }()

		// Only an admitted query leads a flight: its followers wait on the
		// slot it already holds.
		var f *flight
		if cacheable {
			f = s.cache.lead(key)
		}
		qrt := s.rt.WithPriority(snap.cfg.clampPriority(p.Priority)).WithProfile(prof)
		result, err = execute(qrt, ds, p)
		if f != nil {
			s.cache.land(key, f, result, err, snap.cfg.CacheEntries)
		}
		lap("execute")
	}
	if err != nil {
		// A panic in execution is a server-side failure (500); anything
		// else is the plan's fault — it validated but the executor
		// rejected it (e.g. unknown column) — and a 422, which keeps the
		// "zero 5xx" load gate meaningful for real internal failures.
		code := http.StatusUnprocessableEntity
		if errors.Is(err, errExecPanicked) {
			code = http.StatusInternalServerError
		}
		s.reply(w, prof, lapStart, code, err, nil)
		return
	}
	resp := queryResponse{
		Op:       string(p.Op),
		Dataset:  p.Dataset,
		QueryID:  prof.ID,
		Result:   result,
		Priority: snap.cfg.clampPriority(p.Priority),
		Cached:   hit,
		Shared:   joined != nil,
	}
	if p.Explain {
		resp.Profile = prof
	}
	s.reply(w, prof, lapStart, http.StatusOK, nil, &resp)
}

// reply is the one exit of every /query request. It finalizes prof, its
// status named by code and err and its wall clock stopped at end, and
// publishes it to the slow-query log; then it derives every per-query
// series from the finalized fields and writes resp (code 200) or the
// error envelope. Nothing else counts a query's outcome, so /stats,
// /metrics, the slow log and the reply's wall_ms read one record and
// cannot disagree.
func (s *Server) reply(w http.ResponseWriter, prof *obs.QueryProfile, end time.Time, code int, err error, resp *queryResponse) {
	status := "ok"
	if err != nil {
		prof.Error = err.Error()
		switch code {
		case http.StatusTooManyRequests:
			status = "shed"
			if errors.Is(err, ErrDeadline) {
				status = "expired"
			}
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
			status = "invalid"
		default:
			status = "error"
		}
	}
	prof.FinalizeAt(status, code, end)
	s.slowlog.Observe(prof)

	s.rec.Tenants().Observe(prof.Tenant, prof.Op, time.Duration(prof.TotalNs), prof.HTTPStatus != http.StatusOK)
	for _, st := range prof.Stages {
		// An admitted query passed the admission stage with no 429.
		if st.Name == "admission" && prof.HTTPStatus != http.StatusTooManyRequests {
			s.rec.Histogram(QueueWaitHistogram).Observe(prof.QueueWaitNs)
		}
	}
	switch {
	case prof.HTTPStatus == http.StatusOK:
		s.served.Add(1)
		s.rec.Histogram(QueryHistogram).Observe(prof.TotalNs)
		s.rec.Histogram(opHistograms[plan.Op(prof.Op)]).Observe(prof.TotalNs)
		resp.WallMS = float64(prof.TotalNs) / 1e6
		writeJSON(w, code, resp)
		return
	case prof.HTTPStatus >= 500:
		s.errs5xx.Add(1)
	default:
		s.errs4xx.Add(1)
	}
	writeJSON(w, code, errorResponse{Error: prof.Error, QueryID: prof.ID})
}

// fail answers a request to any endpoint but /query, whose replies leave
// through reply.
func fail(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	metas := make([]Meta, 0, len(snap.datasets))
	for _, d := range snap.datasets {
		metas = append(metas, d.Meta())
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": metas})
}

// statsResponse is the /stats wire form: admission counters plus the
// served-query latency quantiles from the obs histogram.
type statsResponse struct {
	Admission AdmissionStats `json:"admission"`
	Cache     CacheStats     `json:"cache"`
	Served    uint64         `json:"served"`
	Errors4xx uint64         `json:"errors_4xx"`
	Errors5xx uint64         `json:"errors_5xx"`
	// ActiveLoops is the runtime's in-flight loop count at snapshot
	// time — the worker-pool view of concurrency, alongside the
	// admission-level in_flight.
	ActiveLoops int               `json:"active_loops"`
	LatencyMS   *latencyQuantiles `json:"latency_ms,omitempty"`
	// QueueWaitMS quantifies admission delay (arrival to in-flight slot)
	// for admitted queries — the queue-pressure signal that precedes 429s.
	QueueWaitMS *latencyQuantiles `json:"queue_wait_ms,omitempty"`
	// Tenants is the per-tenant × per-op RED/SLO series (also exported
	// in Prometheus form at /metrics).
	Tenants []obs.TenantOpSnapshot `json:"tenants,omitempty"`
}

type latencyQuantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Admission:   s.adm.Stats(),
		Cache:       s.cache.stats(),
		Served:      s.served.Load(),
		Errors4xx:   s.errs4xx.Load(),
		Errors5xx:   s.errs5xx.Load(),
		ActiveLoops: s.rt.ActiveLoops(),
		LatencyMS:   quantilesOf(s.rec.Histogram(QueryHistogram).Snapshot()),
		QueueWaitMS: quantilesOf(s.rec.Histogram(QueueWaitHistogram).Snapshot()),
		Tenants:     s.rec.Tenants().Snapshot(),
	})
}

// handleSlowlog serves the retained profile rings: threshold, counts,
// top-K slowest, and the slow ring sorted slowest-first.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slowlog.Snapshot())
}

// handleQueryLookup serves one retained profile by ID
// (/debug/query/<id>). 404 means the query's profile has been evicted
// from the rings.
func (s *Server) handleQueryLookup(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/query/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("queryd: bad query id %q", idStr))
		return
	}
	prof := s.slowlog.Lookup(id)
	if prof == nil {
		fail(w, http.StatusNotFound, fmt.Errorf("queryd: no retained profile for query %d", id))
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

// quantilesOf converts a histogram snapshot to wire quantiles (nil when
// empty, so the field is omitted).
func quantilesOf(snap obs.HistogramSnapshot) *latencyQuantiles {
	if snap.Count == 0 {
		return nil
	}
	return &latencyQuantiles{
		Count: snap.Count,
		P50:   snap.Quantile(0.50) / 1e6,
		P95:   snap.Quantile(0.95) / 1e6,
		P99:   snap.Quantile(0.99) / 1e6,
	}
}

// controlRequest is the POST /control/config wire form: a full new config
// (partial updates are a footgun with atomic swaps) plus datasets to add.
type controlRequest struct {
	Config   *Config       `json:"config"`
	Datasets []DatasetSpec `json:"datasets"`
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Config())
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		var req controlRequest
		if err := json.Unmarshal(body, &req); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		if err := s.apply(req); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, s.Config())
	default:
		fail(w, http.StatusMethodNotAllowed, errors.New("queryd: GET or POST"))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
