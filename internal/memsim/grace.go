package memsim

import "fmt"

// The grace rule. A region's words are native mappings (see mapWords),
// so unmapping them under a reader is a fault, not a stale read. Readers
// announce themselves with a pin on the Memory; Free retires a region
// onto a list, and the list is unmapped only when no pin is held:
//
//   - a reader pins, then loads the representation it reads;
//   - a retirer publishes the replacement, retires the old region, then
//     looks at the pin count, and unmaps if it reads zero;
//   - otherwise the last Unpin to bring the count to zero with regions
//     retired unmaps them.
//
// Go's atomics are sequentially consistent, so either the retirer sees a
// reader's pin or that reader loads the replacement; and either the
// retirer sees the last Unpin or that Unpin sees the retired bytes, so no
// retired region is left mapped once the pins drop to zero.
//
// One count covers every reader, so a reader that never unpins holds
// every later retirement back, and retired memory waits for a moment
// with no reader at all. A retired region therefore keeps its simulated
// DRAM until it is unmapped: Alloc and CanAlloc count it against
// capacity, so a leaked pin turns into allocation errors rather than
// real memory that grows without bound. rts pins once per parallel loop,
// so a loop body that reads through Views takes no pin of its own; core's
// package-level range kernels and GetFrom pin once per call.

// Pin announces a reader: until the matching Unpin, no region freed after
// this call is unmapped, so payload words loaded after it stay readable.
// Pins nest and are cheap (one atomic add); every Pin needs one Unpin.
func (m *Memory) Pin() { m.pins.Add(1) }

// Unpin ends a Pin. The call that releases the last pin unmaps the regions
// retired meanwhile.
func (m *Memory) Unpin() {
	n := m.pins.Add(-1)
	if n < 0 {
		panic("memsim: Unpin without a Pin")
	}
	if n == 0 && m.retiredBytes.Load() != 0 {
		m.reclaim()
	}
}

// retire takes r off the live list and queues it, unmapping it at once
// when no pin is held. Its simulated DRAM stays used until the unmapping.
func (m *Memory) retire(r *Region) {
	m.mu.Lock()
	delete(m.regions, r)
	m.retired = append(m.retired, r)
	m.retiredBytes.Add(int64(r.FootprintBytes()))
	m.mu.Unlock()
	if m.pins.Load() == 0 {
		m.reclaim()
	}
}

// reclaim unmaps every retired region, and releases its simulated DRAM,
// if no pin is held. The pin check and the hand-over of the list happen
// under m.mu, which retire appends under, so a region retired after a
// reader pinned can never be taken by a check that missed the pin.
func (m *Memory) reclaim() {
	m.mu.Lock()
	if m.pins.Load() != 0 {
		m.mu.Unlock()
		return
	}
	list := m.retired
	m.retired = nil
	for _, r := range list {
		m.accountLocked(r, -1)
	}
	m.mu.Unlock()
	for _, r := range list {
		m.retiredBytes.Add(-int64(r.FootprintBytes()))
		r.unmap()
	}
}

// unmap releases r's mappings (those made so far, when Alloc fails midway).
func (r *Region) unmap() {
	for _, replica := range r.replicas {
		if err := unmapWords(replica); err != nil {
			panic(fmt.Sprintf("memsim: unmapping %d words: %v", len(replica), err))
		}
		r.mem.mappedBytes.Add(-int64(len(replica) * 8))
	}
}

// MappedBytes is the payload currently mapped: every live region's copies
// plus the retired ones not yet unmapped. It equals TotalUsedBytes, which
// counts retired regions until they are unmapped too, but reads without
// the lock. The kernel rounds each mapping up to whole pages; this counts
// the words asked for.
func (m *Memory) MappedBytes() uint64 { return uint64(m.mappedBytes.Load()) }

// RetiredBytes is the part of MappedBytes that belongs to freed regions
// waiting for the last reader pin to drop.
func (m *Memory) RetiredBytes() uint64 { return uint64(m.retiredBytes.Load()) }
