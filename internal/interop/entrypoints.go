package interop

import (
	"fmt"

	"smartarrays/internal/core"
	"smartarrays/internal/memsim"
)

// EntryPoints is the unified API surface guest languages call, mirroring
// the paper's EntryPoints.cpp: every function takes scalar arguments (a
// handle plus integers) and returns a scalar. The methods resolve the
// handle and forward to the core implementation — no smart functionality
// is re-implemented at this layer, which is the paper's central claim.
type EntryPoints struct {
	mem *memsim.Memory
	reg *Registry
}

// NewEntryPoints creates the entry-point surface over a simulated memory.
func NewEntryPoints(mem *memsim.Memory) *EntryPoints {
	return &EntryPoints{mem: mem, reg: NewRegistry()}
}

// Registry exposes the handle registry (thin APIs keep handles there).
func (e *EntryPoints) Registry() *Registry { return e.reg }

// SmartArrayAllocate creates a smart array and returns its handle
// (paper: SmartArray::allocate exposed as an entry point).
func (e *EntryPoints) SmartArrayAllocate(length uint64, bits uint, placement memsim.Placement, socket int) (int64, error) {
	a, err := core.Allocate(e.mem, core.Config{Length: length, Bits: bits, Placement: placement, Socket: socket})
	if err != nil {
		return 0, err
	}
	return e.reg.RegisterArray(a), nil
}

// SmartArrayFree frees the array and releases its handle.
func (e *EntryPoints) SmartArrayFree(h int64) error {
	a, err := e.reg.Array(h)
	if err != nil {
		return err
	}
	a.Free()
	e.reg.ReleaseArray(h)
	return nil
}

// SmartArrayLength returns the element count.
func (e *EntryPoints) SmartArrayLength(h int64) (uint64, error) {
	a, err := e.reg.Array(h)
	if err != nil {
		return 0, err
	}
	return a.Length(), nil
}

// SmartArrayBits returns the element width. Guest languages profile this
// value once and pass it back into the bits-taking entry points so the
// compiled code can specialize (paper §4.3, GraalVM.profile).
func (e *EntryPoints) SmartArrayBits(h int64) (uint, error) {
	a, err := e.reg.Array(h)
	if err != nil {
		return 0, err
	}
	return a.Bits(), nil
}

// SmartArrayGet reads one element for a reader on socket. Unlike the
// in-process API (which panics, like a C++ out-of-bounds access), entry
// points bounds-check and return errors: a buggy guest program must not
// crash the host runtime.
func (e *EntryPoints) SmartArrayGet(h int64, socket int, index uint64) (uint64, error) {
	a, err := e.reg.Array(h)
	if err != nil {
		return 0, err
	}
	if err := checkAccess(a, socket, index); err != nil {
		return 0, err
	}
	return a.GetFrom(socket, index), nil
}

// checkAccess validates a guest-supplied socket and index. The socket must
// be one of the machine's whatever the placement: a concurrent Migrate
// can make any array replicated between this check and the read.
func checkAccess(a *core.SmartArray, socket int, index uint64) error {
	if index >= a.Length() {
		return fmt.Errorf("interop: index %d out of range [0,%d)", index, a.Length())
	}
	if sockets := a.Memory().Spec().Sockets; socket < 0 || socket >= sockets {
		return fmt.Errorf("interop: socket %d out of range [0,%d)", socket, sockets)
	}
	return nil
}

// SmartArrayGetBits is the bits-taking variant: the entry point branches
// on the passed width and dispatches to the specialized implementation,
// "avoiding the overhead of the virtual dispatch" (§4.3). The passed bits
// must match the array's width. The 64- and 32-bit paths index the
// array's typed view (core.WordsAs), so they run only while the bound
// layout is BitPacked; a re-encoded array reads through its codec.
func (e *EntryPoints) SmartArrayGetBits(h int64, socket int, index uint64, bits uint) (uint64, error) {
	a, err := e.reg.Array(h)
	if err != nil {
		return 0, err
	}
	if a.Bits() != bits {
		return 0, fmt.Errorf("interop: profiled bits %d do not match array bits %d", bits, a.Bits())
	}
	if err := checkAccess(a, socket, index); err != nil {
		return 0, err
	}
	// The words are read outside any parallel loop: pin them against a
	// concurrent Reencode, Migrate or free.
	mem := a.Memory()
	mem.Pin()
	defer mem.Unpin()
	v := a.View(socket)
	switch bits {
	case 64:
		if words, ok := core.WordsAs[uint64](&v); ok {
			return words[index], nil
		}
	case 32:
		if words, ok := core.WordsAs[uint32](&v); ok {
			return uint64(words[index]), nil
		}
	}
	return v.Get(index), nil
}

// SmartArrayInit initializes one element from socket.
func (e *EntryPoints) SmartArrayInit(h int64, socket int, index, value uint64) error {
	a, err := e.reg.Array(h)
	if err != nil {
		return err
	}
	if err := checkAccess(a, socket, index); err != nil {
		return err
	}
	if !a.Codec().Fits(value) {
		return fmt.Errorf("interop: value %#x does not fit in %d bits", value, a.Bits())
	}
	a.Init(socket, index, value)
	return nil
}

// IteratorNew allocates an iterator over the array for a reader on socket
// (paper: SmartArrayIterator::allocate as an entry point; Sulong would
// place the iterator in the guest heap so GraalVM can optimize it). The
// iterator holds a reader pin on the array's memory until IteratorFree,
// so the words it walks stay mapped even if the array is freed, migrated
// or re-encoded meanwhile; an iterator never freed holds every later
// unmapping back.
func (e *EntryPoints) IteratorNew(h int64, socket int, index uint64) (int64, error) {
	a, err := e.reg.Array(h)
	if err != nil {
		return 0, err
	}
	if err := checkAccess(a, socket, index); err != nil {
		return 0, err
	}
	mem := a.Memory()
	mem.Pin()
	return e.reg.RegisterIterator(pinnedIterator{core.NewIterator(a, socket, index), mem}), nil
}

// pinnedIterator is an entry-point iterator with the pin it holds.
type pinnedIterator struct {
	core.Iterator
	mem *memsim.Memory
}

// IteratorGet returns the iterator's current element.
func (e *EntryPoints) IteratorGet(h int64) (uint64, error) {
	it, err := e.reg.Iterator(h)
	if err != nil {
		return 0, err
	}
	return it.Get(), nil
}

// IteratorNext advances the iterator.
func (e *EntryPoints) IteratorNext(h int64) error {
	it, err := e.reg.Iterator(h)
	if err != nil {
		return err
	}
	it.Next()
	return nil
}

// IteratorReset repositions the iterator.
func (e *EntryPoints) IteratorReset(h int64, index uint64) error {
	it, err := e.reg.Iterator(h)
	if err != nil {
		return err
	}
	it.Reset(index)
	return nil
}

// IteratorFree releases the iterator handle and its pin; an unknown or
// already freed handle is a no-op.
func (e *EntryPoints) IteratorFree(h int64) {
	if it, ok := e.reg.ReleaseIterator(h).(pinnedIterator); ok {
		it.mem.Unpin()
	}
}

// UnsafeWords returns the raw backing words of the array's replica on
// socket — the sun.misc.Unsafe path. The caller bypasses bounds logic,
// replica selection and decompression; as in the paper (Figure 3), this is
// fast but only correct for the specific representation the caller
// hard-codes, so smart functionalities are lost. It also bypasses the
// grace rule: the words are native memory, unmapped once the array is
// freed (or re-encoded or migrated) and no reader pin is held, so a guest
// must not keep the slice past SmartArrayFree — a read after that faults.
func (e *EntryPoints) UnsafeWords(h int64, socket int) ([]uint64, error) {
	a, err := e.reg.Array(h)
	if err != nil {
		return nil, err
	}
	return a.GetReplica(socket), nil
}

// ResolveArray gives thin APIs direct access to the core object — the
// fully inlined Sulong path where the compilation boundary disappears.
func (e *EntryPoints) ResolveArray(h int64) (*core.SmartArray, error) {
	return e.reg.Array(h)
}
