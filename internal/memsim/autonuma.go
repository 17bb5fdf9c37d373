package memsim

import "sync"

// AutoNUMA simulation. The paper disables Linux's AutoNUMA page-migration
// facility in its evaluation "as AutoNUMA requires several iterations to
// stabilize its final data placement" (§5). This file implements that
// facility so the claim itself is reproducible: with AutoNUMA enabled,
// OS-default regions tally which socket touches each page, and a balance
// pass (one per workload iteration, standing in for the kernel's periodic
// NUMA hinting faults) migrates each page to its dominant accessor.
//
// The ablation harness shows the resulting behaviour: a single-socket
// first-touch layout converges toward an interleaved-like layout over
// several iterations, while replicated smart arrays get the final
// placement immediately — the paper's argument for explicit placement.

// autoTally accumulates per-page access bytes per socket.
type autoTally struct {
	mu sync.Mutex
	// bytes[page][socket]
	bytes [][]uint64
}

// EnableAutoNUMA turns the page-migration simulation on or off. Only
// OSDefault regions participate (pinned, interleaved, and replicated
// placements are explicit and never migrated, matching mbind semantics).
func (m *Memory) EnableAutoNUMA(on bool) {
	m.autoNUMAFlag.Store(on)
}

// recordAccess tallies bytes touched on a page by a reader socket; called
// from the accounting paths when AutoNUMA is enabled.
func (r *Region) recordAccess(page uint64, socket int, bytes uint64) {
	t := r.tally
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.bytes == nil {
		pages := (r.words + PageWords - 1) / PageWords
		t.bytes = make([][]uint64, pages)
	}
	if t.bytes[page] == nil {
		t.bytes[page] = make([]uint64, r.mem.spec.Sockets)
	}
	t.bytes[page][socket] += bytes
	t.mu.Unlock()
}

// AutoNUMABalance performs one migration pass over every OS-default
// region: each page with a recorded dominant accessor moves to that
// socket. It returns the number of pages migrated and resets the tallies
// (the kernel's decaying counters, simplified). Like the real facility,
// repeated passes under a stable access pattern converge to a stable
// placement.
func (m *Memory) AutoNUMABalance() (migrated int) {
	m.mu.Lock()
	regions := make([]*Region, 0, len(m.regions))
	for r := range m.regions {
		regions = append(regions, r)
	}
	m.mu.Unlock()

	for _, r := range regions {
		if r.placement != OSDefault || r.tally == nil {
			continue
		}
		r.tally.mu.Lock()
		for page, counts := range r.tally.bytes {
			if counts == nil {
				continue
			}
			best, bestBytes := -1, uint64(0)
			for s, b := range counts {
				if b > bestBytes {
					best, bestBytes = s, b
				}
			}
			if best >= 0 && r.pageSocket[page].Load() != uint32(best) {
				r.pageSocket[page].Store(uint32(best))
				migrated++
			}
			r.tally.bytes[page] = nil
		}
		r.tally.mu.Unlock()
	}
	return migrated
}
