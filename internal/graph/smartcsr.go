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

// Widths are the packed widths of begin/rbegin and edge/redge in a graph
// of numEdges edges whose largest vertex id is maxID: the minimum widths
// where the layout compresses them, 64 and 32 bits where it does not.
func (l Layout) Widths(numEdges, maxID uint64) (beginBits, edgeBits uint) {
	beginBits, edgeBits = 64, 32
	if l.CompressBegin {
		beginBits = bitpack.MinBits(numEdges)
	}
	if l.CompressEdge {
		edgeBits = bitpack.MinBits(maxID)
	}
	return beginBits, edgeBits
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
	s, err := allocSmartCSR(mem, g.NumVertices, g.NumEdges, g.MaxVertexID(), layout)
	if err != nil {
		return nil, err
	}
	s.Begin.InitRange(0, 0, g.Begin[:g.NumVertices+1])
	s.RBegin.InitRange(0, 0, g.RBegin[:g.NumVertices+1])
	var buf [edgeWindow]uint64
	initIDs(s.Edge, 0, g.Edge[:g.NumEdges], &buf)
	initIDs(s.REdge, 0, g.REdge[:g.NumEdges], &buf)
	return s, nil
}

// BuildSmart builds the CSR of an edge list straight into smart arrays
// per the layout, word for word what NewSmartCSR makes of Build's CSR,
// without the plain CSR: the packed arrays are the counting sort's
// destination. It consumes edges — their order and Dst fields are
// scratch once it returns — so besides the packed arrays it allocates
// only the two begin arrays' prefix sums and a slab's window. The build
// runs on socket 0, like NewSmartCSR.
func BuildSmart(mem *memsim.Memory, numVertices uint64, edges []Edge32, layout Layout) (*SmartCSR, error) {
	if err := checkVertexCount(numVertices); err != nil {
		return nil, err
	}
	var maxID uint32
	if layout.CompressEdge {
		for _, e := range edges {
			maxID = max(maxID, e.Src, e.Dst)
		}
	}
	numEdges := uint64(len(edges))
	s, err := allocSmartCSR(mem, numVertices, numEdges, maxID, layout)
	if err != nil {
		return nil, err
	}
	sink := &packedEdges{edge: s.Edge}
	begin, rbegin, err := countingSort(numVertices, edges, sink)
	if err != nil {
		s.Free()
		return nil, err
	}
	s.Begin.InitRange(0, 0, begin)
	s.RBegin.InitRange(0, 0, rbegin)
	// countingSort left reverse slot k in edges[k].Dst.
	for lo := uint64(0); lo < numEdges; lo += edgeWindow {
		buf := sink.buf[:min(numEdges-lo, edgeWindow)]
		for i := range buf {
			buf[i] = uint64(edges[lo+uint64(i)].Dst)
		}
		s.REdge.InitRange(0, lo, buf)
	}
	return s, nil
}

// packedEdges is countingSort's sink for BuildSmart: slabs are packed
// into the edge array and unpacked from it through one window of 64-bit
// values.
type packedEdges struct {
	edge *core.SmartArray
	buf  [edgeWindow]uint64
}

func (p *packedEdges) putEdges(lo uint64, lists []uint32) { initIDs(p.edge, lo, lists, &p.buf) }

func (p *packedEdges) outLists(lo uint64, buf []uint32) []uint32 {
	for off := 0; off < len(buf); off += edgeWindow {
		window := p.buf[:min(len(buf)-off, edgeWindow)]
		start := lo + uint64(off)
		core.ReadRange(p.edge, 0, start, start+uint64(len(window)), window)
		for i, v := range window {
			buf[off+i] = uint32(v)
		}
	}
	return buf
}

// edgeWindow is the element count of the buffer edge arrays are packed
// and unpacked through: 64 chunks.
const edgeWindow = 64 * bitpack.ChunkSize

// allocSmartCSR allocates a SmartCSR's four arrays per the layout:
// begin/rbegin at 64 bits or the minimum width for numEdges, edge/redge
// at 32 bits or the minimum width for maxID.
func allocSmartCSR(mem *memsim.Memory, numVertices, numEdges uint64, maxID uint32, layout Layout) (*SmartCSR, error) {
	beginBits, edgeBits := layout.Widths(numEdges, uint64(maxID))
	s := &SmartCSR{NumVertices: numVertices, NumEdges: numEdges, layout: layout}
	edgeLen := max(numEdges, 1) // smart arrays are non-empty; edgeless graphs keep a stub
	for _, a := range []struct {
		dst    **core.SmartArray
		name   string
		length uint64
		bits   uint
	}{
		{&s.Begin, "begin", numVertices + 1, beginBits},
		{&s.RBegin, "rbegin", numVertices + 1, beginBits},
		{&s.Edge, "edge", edgeLen, edgeBits},
		{&s.REdge, "redge", edgeLen, edgeBits},
	} {
		arr, err := core.Allocate(mem, core.Config{
			Name:   a.name,
			Length: a.length, Bits: a.bits,
			Placement: layout.Placement, Socket: layout.Socket,
		})
		if err != nil {
			s.Free()
			return nil, fmt.Errorf("graph: %s: %w", a.name, err)
		}
		*a.dst = arr
	}
	return s, nil
}

// initIDs writes vertex ids into a smart array from socket 0, starting at
// element lo, widening them through buf.
func initIDs(dst *core.SmartArray, lo uint64, ids []uint32, buf *[edgeWindow]uint64) {
	for off := 0; off < len(ids); off += edgeWindow {
		window := buf[:min(len(ids)-off, edgeWindow)]
		for i := range window {
			window[i] = uint64(ids[off+i])
		}
		dst.InitRange(0, lo+uint64(off), window)
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
