package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// Binary serialization for smart arrays: the packed payload is written
// as-is (little-endian words, matching the paper's little-endian layout
// assumption), prefixed by a self-describing header. Placement is a
// property of the machine the array is loaded into, not of the data, so
// the reader chooses it — the same bytes can be loaded replicated on one
// machine and interleaved on another.

// serializeMagic identifies a smart-array stream; bump serializeVersion
// on layout changes.
const (
	serializeMagic   = 0x534D4152 // "SMAR"
	serializeVersion = 1
)

// WriteTo serializes the array's logical content (header + packed words
// at the array's width). It returns the bytes written.
func (a *SmartArray) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var header [20]byte
	binary.LittleEndian.PutUint32(header[0:4], serializeMagic)
	binary.LittleEndian.PutUint32(header[4:8], serializeVersion)
	binary.LittleEndian.PutUint64(header[8:16], a.length)
	binary.LittleEndian.PutUint32(header[16:20], uint32(a.codec.Bits()))
	if _, err := bw.Write(header[:]); err != nil {
		return 0, err
	}
	written := int64(len(header))
	// The stream holds the logical content in the packed layout the header
	// describes, whatever the live representation.
	words := encoding.NewBitPackedAt(a.Bits(), a.DecodeAll()).PayloadWords()
	var buf [8]byte
	for _, word := range words {
		binary.LittleEndian.PutUint64(buf[:], word)
		if _, err := bw.Write(buf[:]); err != nil {
			return written, err
		}
		written += 8
	}
	return written, bw.Flush()
}

// ReadArray deserializes a smart array into mem with the given placement.
func ReadArray(mem *memsim.Memory, r io.Reader, placement memsim.Placement, socket int) (*SmartArray, error) {
	br := bufio.NewReader(r)
	var header [20]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("core: reading array header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(header[0:4]); got != serializeMagic {
		return nil, fmt.Errorf("core: bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(header[4:8]); got != serializeVersion {
		return nil, fmt.Errorf("core: unsupported version %d", got)
	}
	length := binary.LittleEndian.Uint64(header[8:16])
	bits := uint(binary.LittleEndian.Uint32(header[16:20]))
	a, err := Allocate(mem, Config{Length: length, Bits: bits, Placement: placement, Socket: socket})
	if err != nil {
		return nil, err
	}
	words := a.codec.WordsFor(length)
	var buf [8]byte
	// Fill one replica from the stream, then copy to the others and
	// record page touches for OS-default placement.
	region := a.rep.Load().region
	primary := region.Replica(0)
	for i := uint64(0); i < words; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			a.Free()
			return nil, fmt.Errorf("core: reading word %d/%d: %w", i, words, err)
		}
		primary[i] = binary.LittleEndian.Uint64(buf[:])
	}
	for _, rep := range region.AllReplicas()[1:] {
		copy(rep, primary)
	}
	region.TouchRange(0, words, socket)
	return a, nil
}
