// Request-scoped query profiles: the per-query counterpart of the
// array-level telemetry in counters/ArrayRegistry. The query service
// profiles every query: a QueryProfile lives from arrival to response,
// rides the query's runtime view (rts.Runtime.WithProfile) into
// execution, and is annotated at every layer it crosses — stage wall
// times and the cache outcome in the query service, morsel claims in the
// scheduler, and chunk-level codec/zone accounting in the column
// kernels. Hot-path
// collection follows the same owner-writes/fold-at-barrier discipline as
// counters.Shard: workers write into per-worker rows (allocated by the
// layer that runs the loop) and the totals are folded into the profile
// after the loop barrier, so nothing in a kernel takes a lock or issues
// a contended atomic per chunk.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Column roles in a ColumnProfile: how the scan touched the column.
const (
	RolePredicate = "predicate" // mask build (filter evaluation)
	RoleTarget    = "target"    // aggregate fold under the mask
	RoleKey       = "key"       // group-by key extraction
)

// Cache outcomes recorded on a profile.
const (
	CacheHit       = "hit"
	CacheMiss      = "miss"
	CacheCoalesced = "coalesced" // answered by an identical plan already executing
	CacheBypass    = "bypass"    // explain or uncacheable op skipped the cache
	CacheOff       = "off"
)

// ProfileStage is one timed span of the request lifecycle. Stages are
// disjoint; their sum approximates TotalNs (the gap is glue code).
type ProfileStage struct {
	Name string `json:"name"`
	Ns   uint64 `json:"ns"`
}

// ColumnProfile is the per-column kernel accounting for one query: which
// codec served the scan, how many 64-row chunks were actually decoded
// (Scanned) versus resolved by zone verdicts, constant folds, or dead
// masks without touching the payload (Pruned), and the payload bytes
// attributed to the decoded chunks. Scanned+Pruned equals the column's
// chunk count for a full-table pass.
type ColumnProfile struct {
	Column        string `json:"column"`
	Role          string `json:"role"`
	Codec         string `json:"codec"`
	Chunks        uint64 `json:"chunks"`
	ChunksScanned uint64 `json:"chunks_scanned"`
	ChunksPruned  uint64 `json:"chunks_pruned"`
	BytesDecoded  uint64 `json:"bytes_decoded"`
}

// QueryProfile is the wire-visible execution profile of one request.
// During collection it is written by the owning request goroutine plus
// (for loop counters) the scheduler via atomics; FinalizeAt folds the
// atomics into the exported fields, after which the profile is immutable
// and safe to publish to the slow-query log and to marshal concurrently.
type QueryProfile struct {
	ID      uint64 `json:"id"`
	Op      string `json:"op,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Plan    string `json:"plan,omitempty"`

	// Status is "ok", "shed", "expired", "error", or "invalid"; shed and
	// expired entries are the minimal profiles emitted on admission
	// rejection so the slow-query log agrees with admission counters.
	Status     string `json:"status"`
	HTTPStatus int    `json:"http_status"`
	Error      string `json:"error,omitempty"`

	Cache string `json:"cache,omitempty"`

	Stages      []ProfileStage `json:"stages"`
	QueueWaitNs uint64         `json:"queue_wait_ns"`
	TotalNs     uint64         `json:"total_ns"`

	Columns []ColumnProfile `json:"columns,omitempty"`

	Loops          uint64 `json:"loops"`
	MorselsClaimed uint64 `json:"morsels_claimed"`
	MorselsStolen  uint64 `json:"morsels_stolen"`

	start time.Time
	// stages backs Stages: the query service records at most four (parse,
	// cache, admission, execute), so a profile is one allocation.
	stages [4]ProfileStage
	mu     sync.Mutex
	loops  atomic.Uint64
	claim  atomic.Uint64
	steal  atomic.Uint64
	final  atomic.Bool
}

// NewQueryProfileAt starts a profile whose wall clock began at start —
// the request arrival time, which the serving layer stamps before it has
// parsed the request.
func NewQueryProfileAt(id uint64, start time.Time) *QueryProfile {
	p := &QueryProfile{ID: id, start: start}
	p.Stages = p.stages[:0]
	return p
}

// Stage appends a timed span. Called only by the request goroutine.
func (p *QueryProfile) Stage(name string, d time.Duration) {
	if d < 0 {
		return
	}
	p.mu.Lock()
	p.Stages = append(p.Stages, ProfileStage{Name: name, Ns: uint64(d)})
	p.mu.Unlock()
}

// AddLoop credits one parallel loop's morsel counts to the query. Safe
// to call concurrently (the scheduler attributes loops as they retire),
// and on a nil profile: loops outside a query attribute to nothing.
func (p *QueryProfile) AddLoop(claimed, stolen uint64) {
	if p == nil {
		return
	}
	p.loops.Add(1)
	p.claim.Add(claimed)
	p.steal.Add(stolen)
}

// AddColumn appends one column's kernel accounting.
func (p *QueryProfile) AddColumn(cp ColumnProfile) {
	p.mu.Lock()
	p.Columns = append(p.Columns, cp)
	p.mu.Unlock()
}

// FinalizeAt stamps the terminal status, folds the loop atomics into the
// exported fields, and stops the wall clock at end — the instant the
// caller's last stage closed, so contiguous stages sum to TotalNs exactly.
// After FinalizeAt the profile must be treated as immutable. Only the
// first call wins, so an error path that finalized early is not
// overwritten.
func (p *QueryProfile) FinalizeAt(status string, httpStatus int, end time.Time) {
	if !p.final.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	p.Status = status
	p.HTTPStatus = httpStatus
	p.TotalNs = uint64(end.Sub(p.start))
	p.Loops = p.loops.Load()
	p.MorselsClaimed = p.claim.Load()
	p.MorselsStolen = p.steal.Load()
	p.mu.Unlock()
}
