// Package collections implements the paper's §7 vision of smart
// collections: sets and maps whose storage is smart arrays, inheriting
// every smart functionality — NUMA placement (including replication) and
// bit compression — without reimplementing them.
//
// Two data layouts from §7 are provided:
//
//   - SmartSet: a sorted smart array probed by binary search (the
//     "encode trees into arrays" layout — log2 n probes per lookup);
//   - SmartMap: open-addressing hashing over smart arrays (the "use
//     hashing instead of trees" layout — O(1) probes with data locality
//     on collisions), with a 1-bit-compressed occupancy array showing
//     the extreme end of bit compression.
package collections

import (
	"errors"
	"fmt"
	"sort"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/memsim"
)

// SmartSet is an immutable sorted set over a bit-compressed smart array.
// Lookups binary-search the array; placement decides which socket serves
// each probe (replication localizes all of them).
type SmartSet struct {
	arr *core.SmartArray
}

// NewSmartSet builds a set from values (duplicates removed) with the given
// placement. The array is packed at the minimum width for the largest
// value.
func NewSmartSet(mem *memsim.Memory, values []uint64, placement memsim.Placement, socket int) (*SmartSet, error) {
	if len(values) == 0 {
		return nil, errors.New("collections: empty set")
	}
	sorted := append([]uint64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	unique := sorted[:1]
	for _, v := range sorted[1:] {
		if v != unique[len(unique)-1] {
			unique = append(unique, v)
		}
	}
	arr, err := core.Allocate(mem, core.Config{
		Length:    uint64(len(unique)),
		Bits:      bitpack.MinBits(unique[len(unique)-1]),
		Placement: placement,
		Socket:    socket,
	})
	if err != nil {
		return nil, err
	}
	arr.InitRange(socket, 0, unique)
	return &SmartSet{arr: arr}, nil
}

// Free releases the backing smart array.
func (s *SmartSet) Free() {
	if s.arr != nil {
		s.arr.Free()
		s.arr = nil
	}
}

// Len is the number of distinct elements.
func (s *SmartSet) Len() uint64 { return s.arr.Length() }

// Contains reports membership for a reader on socket, binary-searching
// the sorted smart array (log2 n probes, each a Function 1 get).
func (s *SmartSet) Contains(socket int, v uint64) bool {
	replica := s.arr.GetReplica(socket)
	lo, hi := uint64(0), s.arr.Length()
	for lo < hi {
		mid := lo + (hi-lo)/2
		got := s.arr.Get(replica, mid)
		switch {
		case got == v:
			return true
		case got < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Rank returns the number of elements < v (the position v would insert
// at) — the primitive behind range predicates on sorted columns.
func (s *SmartSet) Rank(socket int, v uint64) uint64 {
	replica := s.arr.GetReplica(socket)
	lo, hi := uint64(0), s.arr.Length()
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.arr.Get(replica, mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CountRange returns |{x ∈ set : lo <= x < hi}| via two ranks.
func (s *SmartSet) CountRange(socket int, lo, hi uint64) uint64 {
	if hi <= lo {
		return 0
	}
	return s.Rank(socket, hi) - s.Rank(socket, lo)
}

// String summarizes the set.
func (s *SmartSet) String() string {
	return fmt.Sprintf("SmartSet(len=%d, bits=%d, %v)", s.Len(), s.arr.Bits(), s.arr.Placement())
}
