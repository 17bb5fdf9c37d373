// Package interop exposes smart arrays through a language-independent
// entry-point ABI, reproducing the paper's §3 interoperability layer.
//
// In the paper, the single C++ implementation is exposed to guest languages
// through entry-point functions compiled to LLVM bitcode and executed by
// Sulong on the GraalVM; a thin per-language API hides the calls (Figure 7).
// Entry points traffic only in scalars: a smart array is identified by a
// native pointer, and every operation takes and returns integers.
//
// This package provides the same shape in Go: a handle registry maps int64
// handles to arrays and iterators, and the EntryPoints type exposes
// scalar-only functions (smartArrayGet, smartArrayInit, iteratorNext, ...).
// Three access paths with different cost structures consume them:
//
//   - Direct: plain Go calls — the GraalVM/Sulong inlined path (path 1 in
//     Figure 7). The compiler can inline across the boundary.
//   - JNI: every call crosses a marshalling boundary that packs arguments
//     into a byte buffer, re-validates, dispatches by function ID, and
//     unpacks the result — reproducing why per-element JNI access is slow
//     (Figure 3).
//   - Unsafe: raw access to the backing words with no handle indirection,
//     no replica selection and no decompression — fast but, exactly as the
//     paper argues, it forfeits every smart functionality.
package interop

import (
	"fmt"
	"sync"

	"smartarrays/internal/core"
)

// Registry maps scalar handles to native objects, standing in for the raw
// pointers the paper passes to entry points. Handles are never reused,
// making stale-handle bugs loud.
type Registry struct {
	mu     sync.Mutex
	next   int64
	arrays map[int64]*core.SmartArray
	iters  map[int64]core.Iterator
}

// NewRegistry creates an empty handle registry.
func NewRegistry() *Registry {
	return &Registry{
		next:   1,
		arrays: make(map[int64]*core.SmartArray),
		iters:  make(map[int64]core.Iterator),
	}
}

// RegisterArray assigns a handle to a smart array.
func (r *Registry) RegisterArray(a *core.SmartArray) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.next
	r.next++
	r.arrays[h] = a
	return h
}

// Array resolves an array handle.
func (r *Registry) Array(h int64) (*core.SmartArray, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.arrays[h]
	if !ok {
		return nil, fmt.Errorf("interop: unknown array handle %d", h)
	}
	return a, nil
}

// ReleaseArray drops an array handle (the array itself is not freed; the
// owner frees it).
func (r *Registry) ReleaseArray(h int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.arrays, h)
}

// RegisterIterator assigns a handle to an iterator.
func (r *Registry) RegisterIterator(it core.Iterator) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.next
	r.next++
	r.iters[h] = it
	return h
}

// Iterator resolves an iterator handle.
func (r *Registry) Iterator(h int64) (core.Iterator, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	it, ok := r.iters[h]
	if !ok {
		return nil, fmt.Errorf("interop: unknown iterator handle %d", h)
	}
	return it, nil
}

// ReleaseIterator drops an iterator handle and returns the iterator it
// held, nil for an unknown handle.
func (r *Registry) ReleaseIterator(h int64) core.Iterator {
	r.mu.Lock()
	defer r.mu.Unlock()
	it := r.iters[h]
	delete(r.iters, h)
	return it
}

// Counts returns the live handle counts (arrays, iterators) — useful for
// leak tests.
func (r *Registry) Counts() (arrays, iterators int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.arrays), len(r.iters)
}
