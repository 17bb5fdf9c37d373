package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Per-array access telemetry: the measured view of every smart array the
// runtime allocated, maintained live. This is the feedback signal the
// paper's §6 adaptivity algorithm wants but one-shot profiling cannot give
// it: DimmWitted-style access-method/placement tradeoffs are per data
// structure, so every registered array owns one ArrayCounters block and
// the accounting hooks in internal/core add each scan, reduce, gather,
// init and predicate pass straight to it with atomic adds. That block is
// the only place array telemetry is written: nothing folds, drains or
// takes a lock on the accounting path; readers build AccessProfile
// snapshots from atomic loads.

// ArrayAccess is a snapshot of one array's access counters. Elems counts
// are split by access method so consumers can derive the chunk-decode vs
// random ratio the adaptivity diagrams key on.
type ArrayAccess struct {
	// ScanElems..InitElems count the elements accessed by sequential
	// iterator scans, fused reduces, batched gathers and replica inits.
	ScanElems, ReduceElems, GatherElems, InitElems uint64
	// LocalBytes/RemoteBytes split the array's accounted traffic (reads
	// and writes) by whether it crossed a socket boundary.
	LocalBytes, RemoteBytes uint64
	// PredEvals/PredHits count predicate evaluations over the array's
	// elements and how many matched — observed selectivity.
	PredEvals, PredHits uint64
}

// Selectivity is the observed predicate hit rate; ok is false when no
// predicates were evaluated over the array.
func (a ArrayAccess) Selectivity() (sel float64, ok bool) {
	if a.PredEvals == 0 {
		return 0, false
	}
	return float64(a.PredHits) / float64(a.PredEvals), true
}

// AccessMethod names the access path an accounting call covered.
type AccessMethod int

const (
	AccessScan AccessMethod = iota
	AccessReduce
	AccessGather
	AccessInit
	numAccessMethods
)

// ArrayCounters is one registered array's live counter block. Every
// method is an atomic add or load, safe from any goroutine — loop bodies
// included. ID and Load are safe on nil (an unregistered array); the
// adds are not, so callers check once.
type ArrayCounters struct {
	id                      uint64
	elems                   [numAccessMethods]atomic.Uint64
	localBytes, remoteBytes atomic.Uint64
	predEvals, predHits     atomic.Uint64
	// calls counts accounting calls: AccessProfile.Folds.
	calls atomic.Uint64
}

// ID is the array's registry ID (0 on nil).
func (c *ArrayCounters) ID() uint64 {
	if c == nil {
		return 0
	}
	return c.id
}

// Add accounts one hook call: n elements accessed through method m, and
// the bytes it charged, split by locality.
func (c *ArrayCounters) Add(m AccessMethod, n, localBytes, remoteBytes uint64) {
	c.elems[m].Add(n)
	c.localBytes.Add(localBytes)
	c.remoteBytes.Add(remoteBytes)
	c.calls.Add(1)
}

// AddPredicate accounts one predicate pass: evals elements tested, hits
// selected (hits <= evals). Evals are added before hits and Load reads
// hits before evals, so a concurrent reader never sees a selectivity
// above 1.
func (c *ArrayCounters) AddPredicate(evals, hits uint64) {
	c.predEvals.Add(evals)
	c.predHits.Add(hits)
	c.calls.Add(1)
}

// Load snapshots the counters and the number of accounting calls behind
// them. Safe on nil (zero values).
func (c *ArrayCounters) Load() (acc ArrayAccess, calls uint64) {
	if c == nil {
		return ArrayAccess{}, 0
	}
	hits := c.predHits.Load() // before evals: see AddPredicate
	return ArrayAccess{
		ScanElems: c.elems[AccessScan].Load(), ReduceElems: c.elems[AccessReduce].Load(),
		GatherElems: c.elems[AccessGather].Load(), InitElems: c.elems[AccessInit].Load(),
		LocalBytes: c.localBytes.Load(), RemoteBytes: c.remoteBytes.Load(),
		PredEvals: c.predEvals.Load(), PredHits: hits,
	}, c.calls.Load()
}

// AccessProfile is one array's telemetry snapshot plus identity. Derived
// ratios (random share, chunk-decode share, selectivity, locality) are
// methods so the JSON stays raw and recomputable.
type AccessProfile struct {
	// ID is the registry-assigned array identity; Name the allocation
	// label ("edge", "ranks", colstore column names, or "array-<id>").
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	// Bits/Length/Placement echo the array's configuration; Placement
	// tracks migrations.
	Bits      uint   `json:"bits"`
	Length    uint64 `json:"length"`
	Placement string `json:"placement"`
	// Encoding is the array's current representation ("bitpacked" unless
	// re-encoded); CodeBits the width its decode shifts through. Both
	// track live re-encodings.
	Encoding string `json:"encoding,omitempty"`
	CodeBits uint   `json:"code_bits,omitempty"`
	// Folds counts the accounting calls behind the snapshot, i.e. how
	// live the profile is: one per hook call, one per predicate pass.
	Folds uint64 `json:"folds"`

	Access ArrayAccess `json:"access"`
}

// readElems is the total elements read through any access method.
func (p *AccessProfile) readElems() uint64 {
	a := &p.Access
	return a.ScanElems + a.ReduceElems + a.GatherElems
}

// TotalElems is every element access accounted to the array, reads and
// writes.
func (p *AccessProfile) TotalElems() uint64 { return p.readElems() + p.Access.InitElems }

// RandomShare is the fraction of read accesses that were random (batched
// gathers) — the §6 "significant random accesses" signal, measured per
// array instead of assumed per workload.
func (p *AccessProfile) RandomShare() float64 {
	total := p.readElems()
	if total == 0 {
		return 0
	}
	return float64(p.Access.GatherElems) / float64(total)
}

// ChunkDecodeShare is the fraction of read accesses served by chunked
// decode paths (scans and fused reduces) rather than random gathers —
// high values mean compression's decode cost amortizes.
func (p *AccessProfile) ChunkDecodeShare() float64 {
	total := p.readElems()
	if total == 0 {
		return 0
	}
	return float64(p.Access.ScanElems+p.Access.ReduceElems) / float64(total)
}

// Selectivity is observed predicate hit rate; ok is false when no
// predicates were evaluated over the array.
func (p *AccessProfile) Selectivity() (sel float64, ok bool) { return p.Access.Selectivity() }

// LocalShare is the fraction of the array's accounted bytes served
// locally — the per-array locality split the placement diagrams reason
// about.
func (p *AccessProfile) LocalShare() float64 {
	total := p.Access.LocalBytes + p.Access.RemoteBytes
	if total == 0 {
		return 0
	}
	return float64(p.Access.LocalBytes) / float64(total)
}

// ReadsPerElement is how many times each element has been read on
// average — the amortization evidence behind Figure 13's
// "multiple accesses per element" traits.
func (p *AccessProfile) ReadsPerElement() float64 {
	if p.Length == 0 {
		return 0
	}
	return float64(p.readElems()) / float64(p.Length)
}

// ArrayRegistry is the concurrent map of live array profiles. Its mutex
// guards the map and the arrays' identities (Register, SetPlacement,
// SetEncoding, Unregister, snapshots), never their counters. All methods
// are safe on nil (no-ops / zero values) and for concurrent use.
type ArrayRegistry struct {
	mu     sync.Mutex
	nextID uint64
	arrays map[uint64]*arrayEntry
}

// arrayEntry is one registered array: its identity (Access and Folds stay
// zero here; snapshots fill them from the counters) and its counter block.
type arrayEntry struct {
	ident    AccessProfile
	counters ArrayCounters
}

// snapshot copies the entry into a profile. Call with the registry mutex
// held (the identity may change under it).
func (e *arrayEntry) snapshot() AccessProfile {
	p := e.ident
	p.Access, p.Folds = e.counters.Load()
	return p
}

// NewArrayRegistry creates an empty registry.
func NewArrayRegistry() *ArrayRegistry {
	return &ArrayRegistry{arrays: make(map[uint64]*arrayEntry)}
}

// Register adds an array and returns its counter block, which carries the
// non-zero ID. Safe on nil (returns nil: the array stays unregistered).
func (r *ArrayRegistry) Register(name string, bits uint, length uint64, placement string) *ArrayCounters {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := r.nextID
	if name == "" {
		name = "array-" + strconv.FormatUint(id, 10)
	}
	e := &arrayEntry{ident: AccessProfile{ID: id, Name: name, Bits: bits, Length: length, Placement: placement}}
	e.counters.id = id
	r.arrays[id] = e
	return &e.counters
}

// SetPlacement records a migration. Safe on nil / unknown IDs.
func (r *ArrayRegistry) SetPlacement(id uint64, placement string) {
	r.setIdent(id, func(p *AccessProfile) { p.Placement = placement })
}

// SetEncoding records a live re-encoding: the representation's name and
// the code width its decode shifts through. Safe on nil / unknown IDs.
func (r *ArrayRegistry) SetEncoding(id uint64, encoding string, codeBits uint) {
	r.setIdent(id, func(p *AccessProfile) { p.Encoding, p.CodeBits = encoding, codeBits })
}

// setIdent updates a registered array's identity under the mutex.
func (r *ArrayRegistry) setIdent(id uint64, set func(*AccessProfile)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if e := r.arrays[id]; e != nil {
		set(&e.ident)
	}
	r.mu.Unlock()
}

// Unregister drops a freed array's profile. Safe on nil / unknown IDs.
func (r *ArrayRegistry) Unregister(id uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.arrays, id)
	r.mu.Unlock()
}

// Profile snapshots one array's profile by ID.
func (r *ArrayRegistry) Profile(id uint64) (AccessProfile, bool) {
	if r == nil {
		return AccessProfile{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.arrays[id]
	if e == nil {
		return AccessProfile{}, false
	}
	return e.snapshot(), true
}

// Profiles snapshots every registered array, ordered by ID. Safe on nil.
func (r *ArrayRegistry) Profiles() []AccessProfile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]AccessProfile, 0, len(r.arrays))
	for _, e := range r.arrays {
		out = append(out, e.snapshot())
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len is the number of registered arrays. Safe on nil.
func (r *ArrayRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.arrays)
}
