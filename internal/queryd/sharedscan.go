// Shared scans: the per-table coordinator that lets concurrently admitted
// Aggregate/GroupBy plans ride one circular scan. What a ride shares is
// what colstore.ScanRange shares and nothing more: identical plans
// coalesce onto one enrollment outright (one state, one answer), plans
// with the same predicate signature share one mask build per batch and
// fold separately, and plans with different signatures share nothing —
// in one pass they cost as many scans as there are signatures. The table
// is walked in segments (DimmWitted's sharing tradeoff applied to the
// scan cursor): a driver goroutine runs one colstore.ScanRange per
// segment with every enrolled state attached, late arrivals attach at
// the current cursor and complete on wraparound (Crescando-style).
// Enrollment is adaptive and counts only what is shared — the server
// estimates the query's same-signature mates and scores the ride against
// the query's own zone-pruned scan (adapt.ScoreSharedScan); a query with
// no mate, or one the zone index already resolves, bypasses the ring.
package queryd

import (
	"errors"
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
	// err is set instead of res when the pass carrying the query panicked.
	err error
}

// errPassPanicked marks a ride that ended because a segment pass
// panicked — a server-side failure (500), unlike a plan the executor
// rejects.
var errPassPanicked = errors.New("queryd: shared scan pass panicked")

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
	// arrivals holds recent enrollment decisions (newest last), each with
	// its predicate signature, pruned to the window on every note.
	arrivalMu sync.Mutex
	arrivals  []arrival
}

// arrival is one noted enrollment decision.
type arrival struct {
	at  time.Time
	sig string
}

// Arrival-window clamps: below the floor a window can't observe
// concurrency the OS serializes (few-core hosts interleave handlers, so
// near-simultaneous requests land milliseconds apart); above the cap a
// slow table would treat long-gone queries as batch mates.
const (
	arrivalWindowMin = 2 * time.Millisecond
	arrivalWindowMax = 200 * time.Millisecond
)

// noteArrival records one enrollment decision for a plan with predicate
// signature sig and returns the number of such decisions (this one
// included) inside the current arrival window. Arrivals of any other
// signature are kept (they age the window) but never counted: they would
// share nothing with this query. This is the forward-looking half of the
// mate estimate — queries arriving within one wraparound of each other
// ride the same circular scan, whether or not one is on it right now.
func (sc *tableScanner) noteArrival(sig string, now time.Time) int {
	cut := now.Add(-sc.window())
	sc.arrivalMu.Lock()
	defer sc.arrivalMu.Unlock()
	keep, n := 0, 1
	for i, a := range sc.arrivals {
		if !a.at.After(cut) {
			keep = i + 1
		} else if a.sig == sig {
			n++
		}
	}
	sc.arrivals = append(sc.arrivals[keep:], arrival{now, sig})
	// Cap the ring: past a few thousand the estimate can't change any
	// enrollment decision, so dropping the oldest only bounds memory.
	if len(sc.arrivals) > 4096 {
		sc.arrivals = sc.arrivals[len(sc.arrivals)-4096:]
	}
	return n
}

// window is the horizon over which arrivals count as mates: the
// measured wraparound (independent-scan latency until one exists),
// clamped so a tiny table still observes serialized concurrency and a
// huge one doesn't resurrect long-gone queries.
func (sc *tableScanner) window() time.Duration {
	w := time.Duration(sc.wrapNS.Load())
	if w == 0 {
		w = time.Duration(sc.indepNS.Load())
	}
	return min(max(w, arrivalWindowMin), arrivalWindowMax)
}

// noteIndependent folds one bypassed predicated scan's latency into the
// window seed.
func (sc *tableScanner) noteIndependent(d time.Duration) { foldEWMA(&sc.indepNS, int64(d)) }

// foldEWMA folds a positive sample into a 3:1 old:new moving average
// (smooths scheduler jitter); the first sample seeds it.
func foldEWMA(avg *atomic.Int64, n int64) {
	if n <= 0 {
		return
	}
	if old := avg.Load(); old > 0 {
		n = (3*old + n) / 4
	}
	avg.Store(n)
}

// mates notes the arrival of a plan with predicate signature sig and
// returns the estimate of how many other queries would share its mask
// builds on the ring: the same-signature states enrolled now (active +
// pending) or, when larger, the other same-signature arrivals of the last
// window. The two overlap (a rider arrived within about one wraparound),
// so they are not added. The admission census is deliberately absent: it
// counts PageRank runs, unpredicated plans and other signatures, none of
// which share anything with this query.
func (sc *tableScanner) mates(sig string, now time.Time) int {
	riders := 0
	sc.mu.Lock()
	for _, list := range [2][]*sharedQuery{sc.active, sc.pending} {
		for _, q := range list {
			if q.st.Signature() == sig {
				riders++
			}
		}
	}
	sc.mu.Unlock()
	return max(riders, sc.noteArrival(sig, now)-1)
}

// submit enrolls one query and blocks until the circular scan has
// covered the full table for it. Identical enrolled plans coalesce:
// the data is immutable, so a twin's answer is this query's answer.
// When prof is non-nil the enrollment's per-column chunk accounting is
// attached to the scan state (folded by the driver before completion)
// and the ride — mode, segments ridden, wraparound latency — is noted on
// the profile. A ride whose pass panicked returns errPassPanicked.
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
		prof.NoteRide(obs.SharedCoalesced, 0, time.Since(submitStart))
		return me.res, me.err
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
	prof.NoteRide(obs.SharedEnrolled, segs, time.Since(submitStart))
	return me.res, me.err
}

// findTwin returns an enrolled query with the same plan key, if any.
// Only pending/active queries qualify — a retired query's dups list is
// frozen. Linear scan: enrollments number tens, not thousands.
func (sc *tableScanner) findTwin(key string) *sharedQuery {
	for _, list := range [2][]*sharedQuery{sc.pending, sc.active} {
		for _, q := range list {
			if q.key == key {
				return q
			}
		}
	}
	return nil
}

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
// server's close ordering (listener, then runtime) still holds. Passes
// run back to back: a twin coalesces at any time and a same-signature
// mate attaches at the next segment boundary, so waiting between passes
// for more arrivals would only put every rider aboard to sleep.
func (sc *tableScanner) drive() {
	rows := sc.tbl.Rows()
	for {
		passStart := time.Now()
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

		if err := sc.pass(segBound(seg, rows, segments), segBound(seg+1, rows, segments), batch); err != nil {
			sc.fail(err)
			return
		}
		// The observed pass, scaled to a wraparound, sizes the arrival window.
		foldEWMA(&sc.wrapNS, int64(time.Since(passStart))*int64(segments))
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
			q.complete()
		}
	}
}

// pass runs one cooperative ScanRange over rows [lo, hi) for the batch.
// The segment's morsels share the worker pool like any other loop's, so
// sharing composes with priorities and preemption. A kernel panic — the
// runtime re-raises a loop body's panic on the submitter, which here is
// the driver goroutine, where nothing above could catch it — comes back
// as an error instead of taking the process down.
func (sc *tableScanner) pass(lo, hi uint64, batch []*sharedQuery) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPassPanicked, p)
		}
	}()
	states := make([]*colstore.ScanState, len(batch))
	prio := batch[0].prio
	for i, q := range batch {
		states[i] = q.st
		prio = max(prio, q.prio)
	}
	sc.tbl.WithRuntime(sc.rt.WithPriority(prio)).ScanRange(lo, hi, states)
	return nil
}

// fail ends the driver after a panicked pass: every rider — attached or
// still pending, and the twins coalesced onto them — completes with err
// (their accumulators may be half-written), and the ring is left idle so
// the next enrollment starts a fresh driver at segment 0.
func (sc *tableScanner) fail(err error) {
	sc.mu.Lock()
	riders := append(sc.active, sc.pending...)
	sc.active, sc.pending, sc.running = nil, nil, false
	sc.mu.Unlock()
	for _, q := range riders {
		q.err = err
		q.complete()
	}
}

// complete publishes q's res/err to its handler and to every twin
// coalesced onto it. Called once, after the driver has taken q off the
// ring (which freezes dups).
func (q *sharedQuery) complete() {
	for _, d := range q.dups {
		d.res, d.err = q.res, q.err
		close(d.done)
	}
	close(q.done)
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

// decideEnroll scores enrollment for a table plan with the given
// same-signature mate estimate; the zero score means bypass. The cheap
// questions come first: an unpredicated plan has no mask walk to share
// (it is answered without a scan — COUNT(*), zone-root min/max — or by
// pure fused folds) and a plan without a mate has no one to share it
// with, so neither touches the zone index. Otherwise the query's zone
// prune statistics feed the foldShare/resolvedShare the adaptive score
// prices the ride and the independent scan at. Plans whose columns fail
// to resolve bypass too (the independent run owns the error report).
func decideEnroll(tbl *colstore.Table, p *plan.Plan, mates int) adapt.SharedScanScore {
	if len(p.Preds) == 0 || mates < 1 {
		return adapt.SharedScanScore{}
	}
	target, err := tbl.Column(p.Column)
	if err != nil {
		return adapt.SharedScanScore{}
	}
	foldShare, resolved := 1.0, 0.0
	for _, pr := range p.Preds {
		c, err := tbl.Column(pr.Column)
		if err != nil {
			return adapt.SharedScanScore{}
		}
		z := c.Array().ZoneIndex()
		if z == nil {
			continue
		}
		ps := z.PruneStatsFor(pr.Op.Cmp(), pr.Value)
		// Conjunction: the fold only visits chunks every predicate leaves
		// live; the walk skips whatever the best single predicate resolves.
		foldShare = min(foldShare, 1-ps.NoneShare)
		resolved = max(resolved, ps.NoneShare+ps.AllShare)
	}
	return adapt.ScoreSharedScan(target.Array().EncodingStats(), foldShare, resolved, mates)
}
