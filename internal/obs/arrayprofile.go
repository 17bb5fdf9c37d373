package obs

import (
	"sort"
	"strconv"
	"sync"

	"smartarrays/internal/counters"
)

// Per-array access telemetry: the measured view of every smart array the
// runtime allocated, maintained live. This is the feedback signal the
// paper's §6 adaptivity algorithm wants but one-shot profiling cannot give
// it: DimmWitted-style access-method/placement tradeoffs are per data
// structure, so the registry keys profiles by array ID and the accounting
// hooks in internal/core attribute every scan, reduce, gather, and init
// to its array. The hot path stays worker-local: scans fold predicate
// totals once per pass, the RTS folds shards once per parallel loop.

// AccessProfile is one array's accumulated telemetry plus identity. The
// counter block mirrors counters.ArrayAccess; derived ratios (random
// share, chunk-decode share, selectivity, locality) are methods so the
// JSON stays raw and recomputable.
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
	// Folds counts the folds that contributed, i.e. how live the profile
	// is: one per predicate per scan pass, one per worker-shard drain.
	Folds uint64 `json:"folds"`

	Access counters.ArrayAccess `json:"access"`
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
func (p *AccessProfile) Selectivity() (sel float64, ok bool) {
	if p.Access.PredEvals == 0 {
		return 0, false
	}
	return float64(p.Access.PredHits) / float64(p.Access.PredEvals), true
}

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

// ArrayRegistry is the concurrent map of live array profiles. All methods
// are safe on nil (no-ops / zero values), so the core accounting hooks can
// run unregistered at zero cost, and safe for concurrent use — the RTS
// folds from the loop barrier while the introspection server snapshots.
type ArrayRegistry struct {
	mu     sync.Mutex
	nextID uint64
	arrays map[uint64]*AccessProfile
}

// NewArrayRegistry creates an empty registry.
func NewArrayRegistry() *ArrayRegistry {
	return &ArrayRegistry{arrays: make(map[uint64]*AccessProfile)}
}

// Register adds an array and returns its non-zero ID (0 = unregistered,
// the sentinel the accounting hooks check). Safe on nil (returns 0).
func (r *ArrayRegistry) Register(name string, bits uint, length uint64, placement string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := r.nextID
	if name == "" {
		name = defaultArrayName(id)
	}
	r.arrays[id] = &AccessProfile{ID: id, Name: name, Bits: bits, Length: length, Placement: placement}
	return id
}

func defaultArrayName(id uint64) string {
	return "array-" + strconv.FormatUint(id, 10)
}

// SetPlacement records a migration. Safe on nil / unknown IDs.
func (r *ArrayRegistry) SetPlacement(id uint64, placement string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if p := r.arrays[id]; p != nil {
		p.Placement = placement
	}
	r.mu.Unlock()
}

// SetEncoding records a live re-encoding: the representation's name and
// the code width its decode shifts through. Safe on nil / unknown IDs.
func (r *ArrayRegistry) SetEncoding(id uint64, encoding string, codeBits uint) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if p := r.arrays[id]; p != nil {
		p.Encoding = encoding
		p.CodeBits = codeBits
	}
	r.mu.Unlock()
}

// Unregister drops a freed array's profile. Safe on nil / unknown IDs.
func (r *ArrayRegistry) Unregister(id uint64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	delete(r.arrays, id)
	r.mu.Unlock()
}

// Fold adds one worker-local accumulator into the array's profile. Safe
// on nil; unknown IDs are dropped (the array was allocated before the
// registry attached).
func (r *ArrayRegistry) Fold(id uint64, acc *counters.ArrayAccess) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if p := r.arrays[id]; p != nil {
		p.Access.Add(acc)
		p.Folds++
	}
	r.mu.Unlock()
}

// FoldShard drains the shard's per-array accumulators into the registry.
// Call only while the shard's owning worker is quiescent (the RTS calls it
// from the loop barrier). A nil registry drains the shard and drops the
// deltas (telemetry was detached after the arrays registered).
func (r *ArrayRegistry) FoldShard(sh *counters.Shard) {
	if sh == nil {
		return
	}
	sh.DrainArrays(func(id uint64, acc *counters.ArrayAccess) {
		r.Fold(id, acc)
	})
}

// Profile snapshots one array's profile by ID.
func (r *ArrayRegistry) Profile(id uint64) (AccessProfile, bool) {
	if r == nil {
		return AccessProfile{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.arrays[id]
	if p == nil {
		return AccessProfile{}, false
	}
	return *p, true
}

// Profiles snapshots every registered array, ordered by ID. Safe on nil.
func (r *ArrayRegistry) Profiles() []AccessProfile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]AccessProfile, 0, len(r.arrays))
	for _, p := range r.arrays {
		out = append(out, *p)
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
