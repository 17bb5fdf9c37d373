package core

import "math/bits"

// Permutation is a bijection on [0, n) built from an affine map over the
// next power of two with cycle walking: p(i) = (i*A + B) mod 2^k, re-applied
// while the result lands outside [0, n). A is odd, so the map is a
// bijection on [0, 2^k), and cycle walking preserves bijectivity on the
// subset. Forward evaluation is a few multiplies even in the walking case
// (expected < 2 steps).
type Permutation struct {
	n    uint64
	mask uint64
	a, b uint64
}

// NewPermutation creates a permutation of [0, n) parameterized by seed.
func NewPermutation(n uint64, seed uint64) Permutation {
	if n == 0 {
		panic("core: permutation over empty domain")
	}
	k := uint(bits.Len64(n - 1))
	if n == 1 {
		k = 1
	}
	return Permutation{
		n:    n,
		mask: 1<<k - 1,
		a:    (seed*2 + 1) | 0x9E3779B1, // odd
		b:    seed * 0x2545F4914F6CDD1D,
	}
}

// Apply maps an index through the permutation.
func (p Permutation) Apply(i uint64) uint64 {
	for {
		i = (i*p.a + p.b) & p.mask
		if i < p.n {
			return i
		}
	}
}

// RandomizedArray wraps a SmartArray with the §7 "randomization" smart
// functionality: a fine-grained index remapping that spreads hot nearby
// elements across pages — and hence across memory channels and sockets
// for interleaved placements — to dissolve memory hot spots.
//
// The trade-off is the inverse of bit compression's: randomization costs
// nothing in space and a couple of multiplies per access, but it destroys
// sequential locality, so it suits random-access workloads with skewed
// hot sets (indexes, hash tables), not scans. The iterator API is
// intentionally not offered.
type RandomizedArray struct {
	arr  *SmartArray
	perm Permutation
}

// NewRandomized wraps an array with an index permutation derived from
// seed. The wrapper owns no storage; freeing the underlying array
// invalidates it.
func NewRandomized(a *SmartArray, seed uint64) *RandomizedArray {
	return &RandomizedArray{arr: a, perm: NewPermutation(a.Length(), seed)}
}

// Length is the element count.
func (r *RandomizedArray) Length() uint64 { return r.arr.Length() }

// Init stores value at logical index (physically at the permuted slot,
// in every replica).
func (r *RandomizedArray) Init(socket int, index, value uint64) {
	r.arr.Init(socket, r.perm.Apply(index), value)
}

// GetFrom reads the logical index for a reader on socket.
func (r *RandomizedArray) GetFrom(socket int, index uint64) uint64 {
	return r.arr.GetFrom(socket, r.perm.Apply(index))
}

// HotSpotPages reports, for a burst of accesses to logical indices
// [lo, hi), how many distinct sockets serve the traffic before and after
// randomization — the §7 claim that remapping spreads hot neighbours
// across memory channels. Used by the ablation harness.
func (r *RandomizedArray) HotSpotPages(lo, hi uint64) (plainSockets, randomizedSockets int) {
	seen := map[int]bool{}
	seenRand := map[int]bool{}
	for i := lo; i < hi; i++ {
		seen[r.arr.Region().HomeSocket(r.arr.WordOf(i), 0)] = true
		seenRand[r.arr.Region().HomeSocket(r.arr.WordOf(r.perm.Apply(i)), 0)] = true
	}
	return len(seen), len(seenRand)
}
