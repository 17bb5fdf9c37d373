package graph

import (
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/memsim"
)

// Layout selects how a SmartCSR stores its arrays, covering the
// compression variants of the paper's Figure 12:
//
//	"U"   — natural widths: 64-bit begin/rbegin, 32-bit edge/redge.
//	"V"   — begin/rbegin compressed to the minimum bits for edge indices.
//	"V+E" — additionally edge/redge compressed to the minimum bits for
//	        vertex IDs.
type Layout struct {
	// Placement applies to every graph array (the paper varies them
	// together; output arrays stay interleaved and are owned by the
	// algorithms).
	Placement memsim.Placement
	// Socket is the target for SingleSocket placement.
	Socket int
	// CompressBegin packs begin/rbegin with the minimum width instead of
	// 64 bits (Figure 12's "V").
	CompressBegin bool
	// CompressEdge packs edge/redge with the minimum width instead of 32
	// bits (Figure 12's "V+E").
	CompressEdge bool
}

// SmartCSR is a CSR graph materialized in smart arrays.
type SmartCSR struct {
	NumVertices uint64
	NumEdges    uint64
	Begin       *core.SmartArray
	Edge        *core.SmartArray
	RBegin      *core.SmartArray
	REdge       *core.SmartArray
	layout      Layout
}

// NewSmartCSR materializes g into smart arrays per the layout. socket 0
// threads initialize (matching the paper's note that single-threaded
// initialization first-touches onto one socket under the OS default
// policy).
func NewSmartCSR(mem *memsim.Memory, g *CSR, layout Layout) (*SmartCSR, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	beginBits := uint(64)
	if layout.CompressBegin {
		beginBits = bitpack.MinBits(g.NumEdges)
	}
	edgeBits := uint(32)
	if layout.CompressEdge {
		edgeBits = bitpack.MinBits(uint64(g.MaxVertexID()))
	}

	s := &SmartCSR{NumVertices: g.NumVertices, NumEdges: g.NumEdges, layout: layout}
	var err error
	free := func() { s.Free() }

	alloc := func(name string, length uint64, bits uint) (*core.SmartArray, error) {
		return core.Allocate(mem, core.Config{
			Name:   name,
			Length: length, Bits: bits,
			Placement: layout.Placement, Socket: layout.Socket,
		})
	}
	if s.Begin, err = alloc("begin", g.NumVertices+1, beginBits); err != nil {
		free()
		return nil, fmt.Errorf("graph: begin: %w", err)
	}
	if s.RBegin, err = alloc("rbegin", g.NumVertices+1, beginBits); err != nil {
		free()
		return nil, fmt.Errorf("graph: rbegin: %w", err)
	}
	edgeLen := g.NumEdges
	if edgeLen == 0 {
		edgeLen = 1 // smart arrays are non-empty; edgeless graphs keep a stub
	}
	if s.Edge, err = alloc("edge", edgeLen, edgeBits); err != nil {
		free()
		return nil, fmt.Errorf("graph: edge: %w", err)
	}
	if s.REdge, err = alloc("redge", edgeLen, edgeBits); err != nil {
		free()
		return nil, fmt.Errorf("graph: redge: %w", err)
	}

	s.Begin.InitRange(0, 0, g.Begin[:g.NumVertices+1])
	s.RBegin.InitRange(0, 0, g.RBegin[:g.NumVertices+1])
	initEdges(s.Edge, g.Edge[:g.NumEdges])
	initEdges(s.REdge, g.REdge[:g.NumEdges])
	return s, nil
}

// initEdges writes the 32-bit vertex ids of a plain CSR edge array into a
// smart array from socket 0, widening them through a chunk-aligned buffer.
func initEdges(dst *core.SmartArray, src []uint32) {
	var buf [64 * bitpack.ChunkSize]uint64
	for lo := 0; lo < len(src); lo += len(buf) {
		n := min(len(src)-lo, len(buf))
		for i, e := range src[lo : lo+n] {
			buf[i] = uint64(e)
		}
		dst.InitRange(0, uint64(lo), buf[:n])
	}
}

// Free releases all graph arrays.
func (s *SmartCSR) Free() {
	for _, a := range []*core.SmartArray{s.Begin, s.Edge, s.RBegin, s.REdge} {
		if a != nil {
			a.Free()
		}
	}
	s.Begin, s.Edge, s.RBegin, s.REdge = nil, nil, nil, nil
}

// Layout returns the storage layout.
func (s *SmartCSR) Layout() Layout { return s.layout }

// PayloadBytes is the single-copy (no replicas) payload of all graph
// arrays — the quantity behind the paper's "V+E reduces memory space
// requirements by around 21%" formula.
func (s *SmartCSR) PayloadBytes() uint64 {
	var sum uint64
	for _, a := range []*core.SmartArray{s.Begin, s.Edge, s.RBegin, s.REdge} {
		if a != nil {
			sum += a.CompressedBytes()
		}
	}
	return sum
}

// OutDegree reads v's out-degree from the smart begin array for a reader
// on socket.
func (s *SmartCSR) OutDegree(socket int, v uint64) uint64 {
	replica := s.Begin.GetReplica(socket)
	return s.Begin.Get(replica, v+1) - s.Begin.Get(replica, v)
}
