//go:build !unix || race

package memsim

// mapWords falls back to the Go heap where there is no mmap, and under
// the race detector, which checks only heap memory for races.
func mapWords(words uint64) ([]uint64, error) { return make([]uint64, words), nil }

// unmapWords leaves a heap fallback to the collector.
func unmapWords([]uint64) error { return nil }
