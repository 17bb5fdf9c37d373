// Result cache and flight table for the query service. The cache is a
// bounded LRU over executed query results; the flight table holds the
// plans executing right now, so an identical arrival waits for that
// answer instead of computing it again. Both are keyed by one cacheKey:
// the canonical plan plus every version counter that could change the
// answer — the catalog snapshot version and, for table queries, the
// generation of each touched column's smart array. Staleness never needs
// an explicit invalidation pass: a control-plane swap bumps the snapshot
// version and a Reencode/Init bumps the array generation, so stale entries
// and flights simply stop being addressable (entries age out of the LRU).
package queryd

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"smartarrays/internal/queryd/plan"
)

// resultCache is a mutex-guarded LRU plus the flight table. The lock
// covers only map+list bookkeeping (no execution happens under it);
// results are immutable wire structs shared by reference.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// flight is one executing plan. Its leader sets result/err before closing
// done; followers read them after.
type flight struct {
	done   chan struct{}
	result any
	err    error
}

type cacheEntry struct {
	key    string
	result any
}

func newResultCache() *resultCache {
	return &resultCache{entries: map[string]*list.Element{}, lru: list.New(), flights: map[string]*flight{}}
}

// join looks key up: the cached result when the cache is on (capacity >
// 0) and holds it, else the flight executing key, else neither — the
// caller then executes the plan itself. Each call lands in exactly one of
// hits, coalesced and (cache on) misses, the outcomes a profile records.
func (c *resultCache) join(key string, capacity int) (result any, f *flight, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if capacity > 0 {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return el.Value.(*cacheEntry).result, nil, true
		}
	}
	if f = c.flights[key]; f != nil {
		c.coalesced.Add(1)
		return nil, f, false
	}
	if capacity > 0 {
		c.misses.Add(1)
	}
	return nil, nil, false
}

// lead registers a flight for key that later identical arrivals join. It
// replaces any flight registered meanwhile: that one's followers still
// hold it and get its answer.
func (c *resultCache) lead(key string) *flight {
	f := &flight{done: make(chan struct{})}
	c.mu.Lock()
	c.flights[key] = f
	c.mu.Unlock()
	return f
}

// land publishes a leader's outcome. Under one lock the flight leaves the
// table and a success enters the cache, so an identical arrival finds one
// or the other; then every follower wakes.
func (c *resultCache) land(key string, f *flight, result any, err error, capacity int) {
	f.result, f.err = result, err
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if err == nil {
		c.putLocked(key, result, capacity)
	}
	c.mu.Unlock()
	close(f.done)
}

// putLocked inserts (or refreshes) key under the given capacity, evicting
// from the LRU tail. Capacity is passed per call because it lives in the
// atomically-swapped config snapshot: a shrunk limit takes effect on the
// next insert without a resize pass.
func (c *resultCache) putLocked(key string, result any, capacity int) {
	if capacity <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).result = result
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, result: result})
	for c.lru.Len() > capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// CacheStats is the /stats wire form of the cache counters. Coalesced
// counts queries answered by an identical plan in flight.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// cacheKey canonicalizes p into a cache and flight key, or reports that
// the query is uncacheable (unknown columns are left for the executor to
// reject).
// Admission metadata (priority, tenant, deadline) is deliberately
// excluded: it shapes scheduling, never the result. Predicates are sorted
// because conjunctions commute. Each table column is keyed as
// name@generation so any representation or content revision makes every
// dependent entry unreachable.
func cacheKey(snap *snapshot, ds *Dataset, p *plan.Plan) (string, bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|%s|%s", snap.version, p.Dataset, p.Op)
	colKey := func(name string) bool {
		if ds.Table == nil {
			return false
		}
		col, err := ds.Table.Column(name)
		if err != nil {
			return false
		}
		fmt.Fprintf(&b, "|%s@%d", name, col.Array().Generation())
		return true
	}
	switch p.Op {
	case plan.OpAggregate, plan.OpGroupBy:
		fmt.Fprintf(&b, "|agg%d", int(p.Agg))
		if !colKey(p.Column) {
			return "", false
		}
		if p.Op == plan.OpGroupBy {
			b.WriteString("|key")
			if !colKey(p.Key) {
				return "", false
			}
		}
		var preds []string
		for _, pr := range p.Preds {
			var pb strings.Builder
			fmt.Fprintf(&pb, "|w:%s@", pr.Column)
			col, err := ds.Table.Column(pr.Column)
			if err != nil {
				return "", false
			}
			fmt.Fprintf(&pb, "%d:%d:%d", col.Array().Generation(), int(pr.Op), pr.Value)
			preds = append(preds, pb.String())
		}
		sort.Strings(preds)
		for _, s := range preds {
			b.WriteString(s)
		}
	case plan.OpPageRank:
		fmt.Fprintf(&b, "|iters%d", p.Iters)
	case plan.OpBFS:
		fmt.Fprintf(&b, "|src%d", p.Source)
	case plan.OpDegree:
		// op alone identifies it
	default:
		return "", false
	}
	return b.String(), true
}
