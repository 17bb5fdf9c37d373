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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
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

// QueryHistogram is the recorder histogram receiving one end-to-end
// observation per served query (admission wait included); per-op
// histograms are named QueryHistogram + "." + op.
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

	// served counts successfully executed queries; errs5xx counts
	// internal failures (the load gate requires this to stay zero).
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{rt: rt, rec: rec, reg: reg, adm: newAdmission(), cache: newResultCache()}
	s.slowlog = obs.NewSlowLog(0, 0, cfg.slowQueryThreshold())
	rt.SetRecorder(rec)
	rt.SetArrayProfiling(reg)

	// Datasets are built with stealing still off: initialization wants
	// stripe-faithful claiming's first-touch determinism.
	datasets := make(map[string]*Dataset, len(specs))
	for _, spec := range specs {
		if _, dup := datasets[spec.Name]; dup {
			return nil, fmt.Errorf("queryd: duplicate dataset %q", spec.Name)
		}
		d, err := BuildDataset(rt, spec)
		if err != nil {
			return nil, err
		}
		datasets[spec.Name] = d
	}
	// BuildDataset stages every column as a plain []uint64 before packing
	// it — an order of magnitude more than the payload it leaves behind,
	// and at a serving allocation rate no GC cycle would come to collect
	// it. Hand it back to the OS before the first request.
	debug.FreeOSMemory()
	snap := &snapshot{cfg: cfg, datasets: datasets}
	s.snap.Store(snap)

	// Serving wants throughput, not attribution: from here on any free
	// worker may take any batch of any query's loop.
	rt.SetStealing(true)
	return s, nil
}

// Close closes the runtime: it waits for the loops in flight and refuses
// new ones. The HTTP listener must be closed first (Start's stop function
// does both, in order).
func (s *Server) Close() {
	s.rt.Close()
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

// SwapConfig validates and atomically installs a new configuration,
// keeping the existing dataset catalog, then kicks the admission queue so
// raised limits take effect immediately.
func (s *Server) SwapConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.ctlMu.Lock()
	old := s.snap.Load()
	s.snap.Store(&snapshot{cfg: cfg, datasets: old.datasets, version: old.version + 1})
	s.ctlMu.Unlock()
	s.slowlog.SetThreshold(cfg.slowQueryThreshold())
	s.adm.Kick(cfg)
	return nil
}

// AddDataset materializes spec and installs it in a fresh snapshot. The
// build's loops share the worker pool like any other work, so serving
// continues meanwhile; the new dataset becomes visible atomically.
func (s *Server) AddDataset(spec DatasetSpec) error {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if _, exists := s.snap.Load().datasets[spec.Name]; exists {
		return fmt.Errorf("queryd: dataset %q already exists", spec.Name)
	}
	d, err := BuildDataset(s.rt, spec)
	if err != nil {
		return err
	}
	debug.FreeOSMemory() // the build's staging slices, as in NewServer
	old := s.snap.Load()
	datasets := make(map[string]*Dataset, len(old.datasets)+1)
	for k, v := range old.datasets {
		datasets[k] = v
	}
	datasets[spec.Name] = d
	s.snap.Store(&snapshot{cfg: old.cfg, datasets: datasets, version: old.version + 1})
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
	intro := serve.New(s.rec, s.reg).Handler()
	for _, path := range []string{"/metrics", "/arrays", "/trace", "/decisions"} {
		mux.Handle(path, intro)
	}
	return mux
}

// Start binds addr (":0" picks a free port), serves in the background,
// and returns the bound address plus a stop function that closes the
// listener and then the runtime.
func (s *Server) Start(addr string) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("queryd: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(l) }()
	stop := func() error {
		err := srv.Close()
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
	// qStart anchors the whole profile: TotalNs and the latency
	// histogram both measure arrival to response.
	qStart := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("queryd: POST a query JSON body"))
		return
	}
	qid := s.qid.Add(1)
	// Every query is profiled, its wall clock backdated to arrival; the
	// profile lands in the slow-query log whatever the outcome.
	prof := obs.NewQueryProfileAt(qid, qStart)
	// One snapshot load; the rest of the request sees a consistent
	// config+catalog no matter how many swaps land meanwhile.
	snap := s.snap.Load()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody))
	if err != nil {
		s.failQuery(w, http.StatusBadRequest, err, prof, "invalid", qStart)
		return
	}
	p, err := plan.Parse(body)
	if err != nil {
		s.failQuery(w, http.StatusBadRequest, err, prof, "invalid", qStart)
		return
	}
	prof.Op = string(p.Op)
	prof.Dataset = p.Dataset
	prof.Tenant = p.Tenant
	prof.Plan = p.String()
	// Stage times are contiguous laps from qStart: each stage ends where
	// the next begins and the profile finalizes at the instant the last
	// one closed (lapStart), so the stages tile the profile's wall time —
	// glue between them (dataset lookup, cache fill, histogram observes)
	// lands in a stage instead of a gap a descheduled handler could
	// silently widen.
	lapStart := qStart
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
		s.failQuery(w, http.StatusNotFound, err, prof, "error", qStart)
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
		queueWait := lap("admission")
		prof.QueueWaitNs = uint64(queueWait)
		if err != nil {
			s.reject(w, snap.cfg, err, prof, qStart)
			return
		}
		if s.rec != nil {
			s.rec.Histogram(QueueWaitHistogram).Observe(uint64(queueWait.Nanoseconds()))
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
		s.failExecution(w, err, prof, qStart)
		return
	}

	wall := time.Since(qStart)
	if s.rec != nil {
		s.rec.Histogram(QueryHistogram).Observe(uint64(wall.Nanoseconds()))
		s.rec.Histogram(opHistograms[p.Op]).Observe(uint64(wall.Nanoseconds()))
	}
	s.observeTenant(p.Tenant, string(p.Op), wall, false)
	s.finishProfile(prof, "ok", http.StatusOK, lapStart)
	s.served.Add(1)
	resp := queryResponse{
		Op:       string(p.Op),
		Dataset:  p.Dataset,
		QueryID:  qid,
		Result:   result,
		WallMS:   float64(wall.Nanoseconds()) / 1e6,
		Priority: snap.cfg.clampPriority(p.Priority),
		Cached:   hit,
		Shared:   joined != nil,
	}
	if p.Explain {
		resp.Profile = prof
	}
	writeJSON(w, http.StatusOK, resp)
}

// failExecution reports a plan that failed past the cache: a panic in
// execution is a server-side failure (500); anything else is the plan's
// fault — it validated but the executor rejected it (e.g. unknown column)
// — and a 422, which keeps the "zero 5xx" load gate meaningful for real
// internal failures.
func (s *Server) failExecution(w http.ResponseWriter, err error, prof *obs.QueryProfile, start time.Time) {
	status := http.StatusUnprocessableEntity
	if errors.Is(err, errExecPanicked) {
		status = http.StatusInternalServerError
	}
	s.failQuery(w, status, err, prof, "error", start)
}

// finishProfile finalizes a profile, its wall clock stopped at end, and
// publishes it to the slow-query log.
func (s *Server) finishProfile(prof *obs.QueryProfile, status string, httpStatus int, end time.Time) {
	prof.FinalizeAt(status, httpStatus, end)
	s.slowlog.Observe(prof)
}

// observeTenant records the per-tenant RED observation. Every terminal
// outcome — served, cached, shed, failed — lands here exactly once, so
// the tenant series agree with the admission and error counters.
func (s *Server) observeTenant(tenant, op string, d time.Duration, isErr bool) {
	if s.rec != nil {
		s.rec.Tenants().Observe(tenant, op, d, isErr)
	}
}

// failQuery is fail for a query: it finalizes the query's profile with
// the given status so error paths appear in the slow-query log, and
// records the RED error observation under the tenant and op the profile
// names (empty for a request that never parsed).
func (s *Server) failQuery(w http.ResponseWriter, status int, err error, prof *obs.QueryProfile, profStatus string, start time.Time) {
	if status >= 500 {
		s.errs5xx.Add(1)
	} else {
		s.errs4xx.Add(1)
	}
	prof.Error = err.Error()
	s.finishProfile(prof, profStatus, status, time.Now())
	s.observeTenant(prof.Tenant, prof.Op, time.Since(start), true)
	writeJSON(w, status, errorResponse{Error: err.Error(), QueryID: prof.ID})
}

// reject maps admission errors onto 429 with a Retry-After hint. A
// rejection still emits a (minimal) profile whose status names the shed
// reason, so the slow-query log and tenant error series agree with the
// admission counters.
func (s *Server) reject(w http.ResponseWriter, cfg Config, err error, prof *obs.QueryProfile, start time.Time) {
	// Both shed and expired queries should back off about one queue
	// drain; the timeout is the honest upper bound.
	w.Header().Set("Retry-After", fmt.Sprintf("%d", (cfg.QueueTimeoutMS+999)/1000))
	status := "shed"
	if errors.Is(err, ErrDeadline) {
		status = "expired"
	}
	s.failQuery(w, http.StatusTooManyRequests, err, prof, status, start)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		s.errs5xx.Add(1)
	} else {
		s.errs4xx.Add(1)
	}
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
	resp := statsResponse{
		Admission:   s.adm.Stats(),
		Cache:       s.cache.stats(),
		Served:      s.served.Load(),
		Errors4xx:   s.errs4xx.Load(),
		Errors5xx:   s.errs5xx.Load(),
		ActiveLoops: s.rt.ActiveLoops(),
	}
	if s.rec != nil {
		resp.LatencyMS = quantilesOf(s.rec.Histogram(QueryHistogram).Snapshot())
		resp.QueueWaitMS = quantilesOf(s.rec.Histogram(QueueWaitHistogram).Snapshot())
		resp.Tenants = s.rec.Tenants().Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
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
		s.fail(w, http.StatusBadRequest, fmt.Errorf("queryd: bad query id %q", idStr))
		return
	}
	prof := s.slowlog.Lookup(id)
	if prof == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("queryd: no retained profile for query %d", id))
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
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		var req controlRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		if req.Config != nil {
			if err := s.SwapConfig(*req.Config); err != nil {
				s.fail(w, http.StatusBadRequest, err)
				return
			}
		}
		for _, spec := range req.Datasets {
			if err := s.AddDataset(spec); err != nil {
				s.fail(w, http.StatusBadRequest, err)
				return
			}
		}
		writeJSON(w, http.StatusOK, s.Config())
	default:
		s.fail(w, http.StatusMethodNotAllowed, errors.New("queryd: GET or POST"))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
