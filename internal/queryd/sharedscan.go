// Shared scans: the per-table coordinator that coalesces concurrently
// admitted Aggregate/GroupBy plans into cooperative fused passes. N
// enrolled queries cost one chunk decode plus N folds instead of N full
// scans (DimmWitted's sharing tradeoff applied to the scan cursor): the
// table is walked in segments as a circular scan, a driver goroutine
// runs one colstore.ScanRange per segment with every enrolled query's
// state attached, late arrivals attach at the current cursor and
// complete on wraparound (Crescando-style), and identical plans
// piggyback on one enrollment outright. Enrollment is adaptive — the
// server scores modeled sharing against the query's own zone-pruned
// scan (adapt.ScoreSharedScan) and bypasses when pruning already wins,
// e.g. highly selective zone-resolved predicates.
package queryd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smartarrays/internal/adapt"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// SharedBatchHistogram is the recorder histogram observing how many
// queries each cooperative segment pass served — distinct scan states
// plus the coalesced twins riding them.
const SharedBatchHistogram = "queryd.shared_batch"

// SharedScanStats is the /stats wire form of the coordinator counters.
type SharedScanStats struct {
	// Enrolled counts queries that rode a cooperative pass (leaders
	// included); Coalesced counts queries answered by piggybacking on an
	// identical enrolled plan; Bypassed counts eligible queries the
	// adaptive score sent to an independent scan instead.
	Enrolled  uint64 `json:"enrolled"`
	Coalesced uint64 `json:"coalesced"`
	Bypassed  uint64 `json:"bypassed"`
	// SegmentPasses counts cooperative segment passes executed;
	// SharedBatches counts the passes that served at least two queries
	// (coalesced twins included — a pass folding one state for three
	// identical queries is sharing) — the "did sharing actually happen"
	// signal the load gate asserts.
	SegmentPasses uint64 `json:"segment_passes"`
	SharedBatches uint64 `json:"shared_batches"`
	// MaxBatch is the largest batch any single pass served.
	MaxBatch uint64 `json:"max_batch"`
}

// sharedExec owns one tableScanner per served table plus the monotone
// counters. Tables are immutable and never removed from the catalog, so
// the scanner map only grows (one entry per dataset).
type sharedExec struct {
	rec *obs.Recorder

	mu       sync.Mutex
	scanners map[*colstore.Table]*tableScanner

	enrolled      atomic.Uint64
	coalesced     atomic.Uint64
	bypassed      atomic.Uint64
	segmentPasses atomic.Uint64
	sharedBatches atomic.Uint64
	maxBatch      atomic.Uint64
}

func newSharedExec(rec *obs.Recorder) *sharedExec {
	return &sharedExec{rec: rec, scanners: map[*colstore.Table]*tableScanner{}}
}

// Stats snapshots the coordinator counters.
func (se *sharedExec) Stats() SharedScanStats {
	return SharedScanStats{
		Enrolled:      se.enrolled.Load(),
		Coalesced:     se.coalesced.Load(),
		Bypassed:      se.bypassed.Load(),
		SegmentPasses: se.segmentPasses.Load(),
		SharedBatches: se.sharedBatches.Load(),
		MaxBatch:      se.maxBatch.Load(),
	}
}

// scanner returns (creating on first use) the table's coordinator.
func (se *sharedExec) scanner(tbl *colstore.Table, rt *rts.Runtime) *tableScanner {
	se.mu.Lock()
	defer se.mu.Unlock()
	sc, ok := se.scanners[tbl]
	if !ok {
		sc = &tableScanner{se: se, tbl: tbl, rt: rt}
		se.scanners[tbl] = sc
	}
	return sc
}

// notePass records one executed segment pass of the given batch size.
func (se *sharedExec) notePass(batch int) {
	se.segmentPasses.Add(1)
	if batch >= 2 {
		se.sharedBatches.Add(1)
	}
	for {
		cur := se.maxBatch.Load()
		if uint64(batch) <= cur || se.maxBatch.CompareAndSwap(cur, uint64(batch)) {
			break
		}
	}
	if se.rec != nil {
		se.rec.Histogram(SharedBatchHistogram).Observe(uint64(batch))
	}
}

// sharedQuery is one enrollment: its scan state, wraparound countdown,
// and completion channel. Coalesced twins carry only key/done/res.
type sharedQuery struct {
	key       string
	st        *colstore.ScanState
	prio      int
	remaining int
	// dups are identical plans piggybacking on this enrollment; appended
	// only under the scanner lock while the query is enrolled, frozen
	// once the driver retires it, so finalization reads it lock-free.
	dups []*sharedQuery
	done chan struct{}
	res  colstore.ScanResult
}

// tableScanner is the per-table circular-scan coordinator. The first
// enrollment starts a driver goroutine that runs one cooperative
// ScanRange per segment until no queries remain; enrolling handlers
// just wait on their done channel. The segment count is pinned while
// the driver runs (a query's wraparound countdown must match the
// boundaries every pass uses) and re-reads the config when idle.
type tableScanner struct {
	se  *sharedExec
	tbl *colstore.Table
	rt  *rts.Runtime

	mu       sync.Mutex
	running  bool
	cursor   int
	segments int
	active   []*sharedQuery
	pending  []*sharedQuery

	// wrapNS is an EWMA of the full-wraparound time (segment pass time ×
	// segment count), maintained by the driver. It sizes the arrival
	// window: queries arriving within one wraparound of each other share
	// passes, so that is the horizon over which arrivals predict batches.
	wrapNS atomic.Int64
	// indepNS is an EWMA of independent predicated-scan latency at this
	// table, fed by the bypass path. It seeds the window before any
	// cooperative pass has run — a wraparound costs about one independent
	// scan, and without the seed a slow table never sees two arrivals
	// inside the bootstrap floor, so nothing would ever enroll.
	indepNS atomic.Int64
	// arrivalSeq counts eligible decisions ever noted; the driver diffs it
	// across passes to tell flowing multi-client load (pace the scan so
	// arrivals batch) from a lone sequential client (never pace — its next
	// query only arrives after this one returns).
	arrivalSeq atomic.Uint64
	// gapNS is the windowed mean inter-arrival gap — the pause that lets
	// one more query join the current pass.
	gapNS atomic.Int64
	// arrivals holds recent eligible-decision timestamps (newest last),
	// pruned to the window on every note.
	arrivalMu sync.Mutex
	arrivals  []time.Time
}

// Arrival-window clamps: below the floor a window can't observe
// concurrency the OS serializes (few-core hosts interleave handlers, so
// near-simultaneous requests land milliseconds apart); above the cap a
// slow table would treat long-gone queries as batch mates.
const (
	arrivalWindowMin = 2 * time.Millisecond
	arrivalWindowMax = 200 * time.Millisecond
)

// noteArrival records one eligible enrollment decision and returns the
// number of such decisions (this one included) inside the current
// arrival window. This is the forward-looking half of the batch
// estimate: the admission census (in-flight + queued) only sees a
// standing backlog, which never forms when the host serializes request
// handling — yet queries arriving within one wraparound of each other
// would still ride the same circular scan.
func (sc *tableScanner) noteArrival(now time.Time) int {
	window := sc.window()
	cut := now.Add(-window)
	sc.arrivalMu.Lock()
	defer sc.arrivalMu.Unlock()
	keep := 0
	for _, t := range sc.arrivals {
		if t.After(cut) {
			break
		}
		keep++
	}
	sc.arrivals = append(sc.arrivals[keep:], now)
	// Cap the ring: past a few thousand the estimate can't change any
	// enrollment decision, so dropping the oldest only bounds memory.
	if len(sc.arrivals) > 4096 {
		sc.arrivals = sc.arrivals[len(sc.arrivals)-4096:]
	}
	sc.arrivalSeq.Add(1)
	sc.gapNS.Store(int64(window) / int64(len(sc.arrivals)))
	return len(sc.arrivals)
}

// window is the horizon over which arrivals count as batch mates: the
// measured wraparound (independent-scan latency until one exists),
// clamped so a tiny table still observes serialized concurrency and a
// huge one doesn't resurrect long-gone queries.
func (sc *tableScanner) window() time.Duration {
	w := time.Duration(sc.wrapNS.Load())
	if w == 0 {
		w = time.Duration(sc.indepNS.Load())
	}
	if w < arrivalWindowMin {
		return arrivalWindowMin
	}
	if w > arrivalWindowMax {
		return arrivalWindowMax
	}
	return w
}

// noteIndependent folds one bypassed predicated scan's latency into the
// window seed.
func (sc *tableScanner) noteIndependent(d time.Duration) {
	n := int64(d)
	if n <= 0 {
		return
	}
	if old := sc.indepNS.Load(); old > 0 {
		n = (3*old + n) / 4
	}
	sc.indepNS.Store(n)
}

// recentArrivals counts the enrollable decisions inside the current
// window without noting a new one — the driver's view of how many
// queries are concurrently flowing at this table.
func (sc *tableScanner) recentArrivals(now time.Time) int {
	cut := now.Add(-sc.window())
	sc.arrivalMu.Lock()
	defer sc.arrivalMu.Unlock()
	n := 0
	for i := len(sc.arrivals) - 1; i >= 0; i-- {
		if !sc.arrivals[i].After(cut) {
			break
		}
		n++
	}
	return n
}

// population is the current enrollment (active + pending) — one input
// to the server's batch-size estimate.
func (sc *tableScanner) population() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.active) + len(sc.pending)
}

// submit enrolls one query and blocks until the circular scan has
// covered the full table for it. Identical enrolled plans coalesce:
// the data is immutable, so a twin's answer is this query's answer.
// When prof is non-nil the enrollment's per-column chunk accounting is
// attached to the scan state (folded by the driver before completion)
// and the coordinator outcome — mode, segments ridden, wraparound
// latency — is noted on the profile.
func (sc *tableScanner) submit(q colstore.ScanQuery, key string, prio, segments int, prof *obs.QueryProfile) (colstore.ScanResult, error) {
	submitStart := time.Now()
	sc.mu.Lock()
	if twin := sc.findTwin(key); twin != nil {
		me := &sharedQuery{key: key, done: make(chan struct{})}
		twin.dups = append(twin.dups, me)
		sc.mu.Unlock()
		sc.se.coalesced.Add(1)
		<-me.done
		// A coalesced twin rode another query's state: no column detail
		// to report, just the outcome and the wait.
		prof.NoteShared(obs.SharedCoalesced, 0, time.Since(submitStart))
		return me.res, nil
	}
	st, err := sc.tbl.NewScanState(q)
	if err != nil {
		sc.mu.Unlock()
		return colstore.ScanResult{}, err
	}
	st.EnableProfile(prof, len(sc.rt.Workers()))
	me := &sharedQuery{key: key, st: st, prio: prio, done: make(chan struct{})}
	sc.pending = append(sc.pending, me)
	if !sc.running {
		sc.running = true
		sc.cursor = 0
		sc.segments = segments
		if r := sc.tbl.Rows(); uint64(sc.segments) > r {
			sc.segments = int(r)
		}
		go sc.drive()
	}
	// The driver pins the segment count while running; read the pinned
	// value so the profile reports the wraparound actually ridden.
	segs := sc.segments
	sc.mu.Unlock()
	sc.se.enrolled.Add(1)
	<-me.done
	prof.NoteShared(obs.SharedEnrolled, segs, time.Since(submitStart))
	return me.res, nil
}

// findTwin returns an enrolled query with the same plan key, if any.
// Only pending/active queries qualify — a retired query's dups list is
// frozen. Linear scan: enrollments number tens, not thousands.
func (sc *tableScanner) findTwin(key string) *sharedQuery {
	for _, q := range sc.pending {
		if q.key == key {
			return q
		}
	}
	for _, q := range sc.active {
		if q.key == key {
			return q
		}
	}
	return nil
}

// Pacing bounds: a flowing-load pause never exceeds the cap, so a full
// wraparound stretches by at most segments × cap; past the batch bound
// the walk is already amortized and stretching only adds latency.
const (
	sharedPaceCap      = 2 * time.Millisecond
	sharedPaceMaxBatch = 64
)

// segBound is boundary i of n equal-ish segments over rows, rounded to
// the 64-row chunk grid so a cooperative pass never splits a chunk
// across segments. The per-query chunk accounting depends on this:
// unaligned boundaries make adjacent segments each scan the shared
// partial chunk, breaking scanned+pruned == chunks for enrolled
// queries. Rounding may leave tiny-table segments empty (lo == hi);
// ScanRange no-ops on those and the query still retires after its
// wraparound.
func segBound(i int, rows uint64, n int) uint64 {
	if i >= n {
		return rows
	}
	b := uint64(i) * rows / uint64(n)
	b = (b + bitpack.ChunkSize/2) / bitpack.ChunkSize * bitpack.ChunkSize
	if b > rows {
		b = rows
	}
	return b
}

// drive is the circular scan: attach pending queries at the cursor, run
// one cooperative segment pass at the wave's top priority, retire
// queries that wrapped around, repeat until empty. Runs on its own
// goroutine so no handler is held captive driving other queries'
// segments; it exits before the last enrolled handler returns, so the
// server's close ordering (listener, then runtime) still holds.
//
// When the table is small the wraparound outruns the inter-arrival gap
// and every query would ride solo — no amortization at all. So the
// driver paces itself: any eligible decision noted while a pass was
// running is genuine concurrency (a lone sequential client cannot
// produce one — its next query only arrives after the current one
// returns and the driver has drained), and the driver lingers one
// windowed inter-arrival gap before the next pass so the flow batches
// onto the current scan instead of each arrival getting a private
// wraparound.
func (sc *tableScanner) drive() {
	rows := sc.tbl.Rows()
	lastSeq := sc.arrivalSeq.Load()
	pace := time.Duration(0)
	// Bootstrap the flow deadline from the arrival history: on a fast
	// table the driver drains and restarts in about a wraparound, so a
	// fresh driver would otherwise finish before seeing a single new
	// decision and never pace. Starting with company in the window (the
	// enrolling query plus at least one other) IS flow.
	var flowUntil time.Time
	if now := time.Now(); sc.recentArrivals(now) >= 2 {
		flowUntil = now.Add(sc.window())
	}
	for {
		passStart := time.Now()
		if pace > 0 {
			time.Sleep(pace)
		}
		sc.mu.Lock()
		for _, q := range sc.pending {
			q.remaining = sc.segments
			sc.active = append(sc.active, q)
		}
		sc.pending = sc.pending[:0]
		if len(sc.active) == 0 {
			sc.running = false
			sc.mu.Unlock()
			return
		}
		batch := append([]*sharedQuery(nil), sc.active...)
		// served is the pass's true batch size: states plus the coalesced
		// twins riding them (dups only grow under this lock).
		served := 0
		for _, q := range batch {
			served += 1 + len(q.dups)
		}
		seg, segments := sc.cursor, sc.segments
		sc.mu.Unlock()

		// Flow persists for one arrival window after the last observed
		// decision — a single pass is far too short a sample at any
		// arrival rate worth batching for. The pause is proportional to
		// the deficit between the flowing demand (arrivals in the window)
		// and what this pass already serves: once the batch has absorbed
		// the flow, or the flow stops, pacing stops with it — a closed
		// loop whose equilibrium batch is the concurrent eligible demand.
		now := time.Now()
		if seqNow := sc.arrivalSeq.Load(); seqNow != lastSeq {
			lastSeq = seqNow
			flowUntil = now.Add(sc.window())
		}
		pace = 0
		if now.Before(flowUntil) && served < sharedPaceMaxBatch {
			if deficit := sc.recentArrivals(now) - served; deficit > 0 {
				pace = time.Duration(sc.gapNS.Load()) * time.Duration(deficit)
				if pace > sharedPaceCap {
					pace = sharedPaceCap
				}
			}
		}

		lo := segBound(seg, rows, segments)
		hi := segBound(seg+1, rows, segments)
		states := make([]*colstore.ScanState, len(batch))
		prio := batch[0].prio
		for i, q := range batch {
			states[i] = q.st
			if q.prio > prio {
				prio = q.prio
			}
		}
		// The segment's morsels share the worker pool like any other
		// loop's, so sharing composes with priorities and preemption.
		sc.tbl.WithRuntime(sc.rt.WithPriority(prio)).ScanRange(lo, hi, states)
		// Fold the observed pass — pacing pause included, since arrivals
		// during the pause ride this wraparound too — into the EWMA that
		// sizes the arrival window (3:1 old:new smooths scheduler jitter).
		if wrap := int64(time.Since(passStart)) * int64(segments); wrap > 0 {
			if old := sc.wrapNS.Load(); old > 0 {
				wrap = (3*old + wrap) / 4
			}
			sc.wrapNS.Store(wrap)
		}
		sc.se.notePass(served)

		var finished []*sharedQuery
		sc.mu.Lock()
		sc.cursor = (seg + 1) % segments
		keep := sc.active[:0]
		for _, q := range sc.active {
			q.remaining--
			if q.remaining <= 0 {
				finished = append(finished, q)
			} else {
				keep = append(keep, q)
			}
		}
		sc.active = keep
		sc.mu.Unlock()
		for _, q := range finished {
			// Fold the per-worker scan accounting into the query's profile
			// before completion: close(q.done) publishes it to the waiting
			// handler.
			q.st.FoldProfile()
			q.res = q.st.Result()
			for _, d := range q.dups {
				d.res = q.res
				close(d.done)
			}
			close(q.done)
		}
	}
}

// planScanQuery converts an eligible table plan into its scan form.
func planScanQuery(p *plan.Plan) colstore.ScanQuery {
	q := colstore.ScanQuery{Agg: p.Agg, Column: p.Column, Preds: p.Preds}
	if p.Op == plan.OpGroupBy {
		q.Key = p.Key
	}
	return q
}

// planKey is the coalescing identity: op, aggregate, columns, and the
// predicate set (order-canonicalized — AND commutes). Dataset identity
// comes from the per-table scanner, and staleness needs no guard: table
// data is immutable, and re-encoding preserves values.
func planKey(p *plan.Plan) string {
	return fmt.Sprintf("%s|%d|%s|%s|%s", p.Op, p.Agg, p.Column, p.Key, colstore.PredSignature(p.Preds))
}

// decideEnroll scores enrollment for a predicated table plan at the
// given batch estimate: the query's zone prune statistics feed the
// foldShare/resolvedShare the adaptive score compares against the
// amortized cooperative pass. Unpredicated plans always bypass — they
// are answered without a scan (COUNT(*), zone-root min/max) or by pure
// fused folds, so there is no mask walk to share — as do plans whose
// columns fail to resolve (the independent run owns the error report).
func decideEnroll(tbl *colstore.Table, p *plan.Plan, est int) (adapt.SharedScanScore, bool) {
	if len(p.Preds) == 0 {
		return adapt.SharedScanScore{}, false
	}
	target, err := tbl.Column(p.Column)
	if err != nil {
		return adapt.SharedScanScore{}, false
	}
	foldShare, resolved := 1.0, 0.0
	for _, pr := range p.Preds {
		c, err := tbl.Column(pr.Column)
		if err != nil {
			return adapt.SharedScanScore{}, false
		}
		z := c.Array().ZoneIndex()
		if z == nil {
			continue
		}
		ps := z.PruneStatsFor(pr.Op.Cmp(), pr.Value)
		// Conjunction: the fold only visits chunks every predicate leaves
		// live; the walk skips whatever the best single predicate resolves.
		if fs := 1 - ps.NoneShare; fs < foldShare {
			foldShare = fs
		}
		if r := ps.NoneShare + ps.AllShare; r > resolved {
			resolved = r
		}
	}
	score := adapt.ScoreSharedScan(target.Array().EncodingStats(), foldShare, resolved, est)
	return score, score.Enroll
}
