package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// csrSink is where countingSort stores the forward edge array: a CSR's
// plain slice (Build) or a SmartCSR's packed array (BuildSmart). Slots go
// in and come back a slab at a time, a slab being a run of sources whose
// out-lists fill a span [lo, hi).
type csrSink interface {
	// putEdges stores forward slots [lo, lo+len(lists)): whole out-lists,
	// each sorted.
	putEdges(lo uint64, lists []uint32)
	// outLists returns forward slots [lo, lo+len(buf)) as stored, read
	// into buf or straight from the sink's own storage.
	outLists(lo uint64, buf []uint32) []uint32
}

// countingSort is the one CSR construction both builds share:
//
//  1. a degree count that checks every endpoint, and the prefix sums that
//     make begin and rbegin;
//  2. an in-place partition of edges into slabs — runs of 2^shift sources
//     whose out-lists hold about slabEdges edges — so that each slab's
//     edges occupy its own forward span [begin[v0], begin[v1]);
//  3. per slab, the scatter of each destination into its source's next
//     forward slot in a window the size of the slab, which stays in cache
//     however many edges the graph has, then a sort of each out-list,
//     and the sink stores the slab;
//  4. the in-list fill, which walks the sorted out-lists in ascending
//     source order, so every in-list receives its sources in ascending
//     order and needs no sort of its own. The edge list is dead by then,
//     and the reverse edge array is laid out in it: on return, reverse
//     slot k is edges[k].Dst.
//
// The prefix arrays double as the scatter's and the fill's cursors — a
// cursor run to the end of its list sits where the next list starts — and
// are shifted back afterwards, so beyond them the sort allocates one
// cursor per slab and one window, the size of the largest slab. The
// output depends on the multiset of edges only, never on their order.
func countingSort(numVertices uint64, edges []Edge32, out csrSink) (begin, rbegin []uint64, err error) {
	begin = make([]uint64, numVertices+1)
	rbegin = make([]uint64, numVertices+1)
	for _, e := range edges {
		if uint64(e.Src) >= numVertices || uint64(e.Dst) >= numVertices {
			return nil, nil, fmt.Errorf("graph: edge %d->%d out of range [0,%d)", e.Src, e.Dst, numVertices)
		}
		begin[e.Src+1]++
		rbegin[e.Dst+1]++
	}
	for v := uint64(1); v <= numVertices; v++ {
		begin[v] += begin[v-1]
		rbegin[v] += rbegin[v-1]
	}

	numEdges := uint64(len(edges))
	shift := uint(max(bits.Len64(slabEdges*numVertices/max(numEdges, 1)), 1) - 1)
	slabs := (numVertices-1)>>shift + 1
	span := func(b uint64) (v0, v1 uint64) { return b << shift, min(numVertices, (b+1)<<shift) }
	var widest uint64
	for b := range slabs {
		v0, v1 := span(b)
		widest = max(widest, begin[v1]-begin[v0])
	}
	partition(edges, begin, shift, slabs)

	window := make([]uint32, widest)
	for b := range slabs {
		v0, v1 := span(b)
		lo, hi := begin[v0], begin[v1]
		lists := window[:hi-lo]
		for _, e := range edges[lo:hi] {
			lists[begin[e.Src]-lo] = e.Dst
			begin[e.Src]++
		}
		start := lo
		for _, end := range begin[v0:v1] {
			slices.Sort(lists[start-lo : end-lo])
			start = end
		}
		out.putEdges(lo, lists)
	}
	unshift(begin)

	for b := range slabs {
		v0, v1 := span(b)
		lo, hi := begin[v0], begin[v1]
		lists := out.outLists(lo, window[:hi-lo])
		for v := v0; v < v1; v++ {
			for _, dst := range lists[begin[v]-lo : begin[v+1]-lo] {
				edges[rbegin[dst]].Dst = uint32(v)
				rbegin[dst]++
			}
		}
	}
	unshift(rbegin)
	return begin, rbegin, nil
}

// slabEdges is the number of edges countingSort aims to put in one slab.
const slabEdges = 1 << 16

// partition reorders edges in place so that the edges whose source lies
// in slab b, [b<<shift, (b+1)<<shift), fill the slab's forward span: an
// American flag sort, each edge moved once along the cycle it belongs to.
// begin holds the prefix sums.
func partition(edges []Edge32, begin []uint64, shift uint, slabs uint64) {
	if slabs == 1 {
		return
	}
	numVertices := uint64(len(begin) - 1)
	next := make([]uint64, slabs)
	for b := range next {
		next[b] = begin[uint64(b)<<shift]
	}
	for b := range slabs {
		end := begin[min(numVertices, (b+1)<<shift)]
		for next[b] < end {
			e := edges[next[b]]
			for t := uint64(e.Src) >> shift; t != b; t = uint64(e.Src) >> shift {
				e, edges[next[t]] = edges[next[t]], e
				next[t]++
			}
			edges[next[b]] = e
			next[b]++
		}
	}
}

// unshift turns cursors that each ran to the end of their list back into
// the prefix sums they started from.
func unshift(cur []uint64) {
	copy(cur[1:], cur[:len(cur)-1])
	cur[0] = 0
}

func (g *CSR) putEdges(lo uint64, lists []uint32)        { copy(g.Edge[lo:], lists) }
func (g *CSR) outLists(lo uint64, buf []uint32) []uint32 { return g.Edge[lo : lo+uint64(len(buf))] }
