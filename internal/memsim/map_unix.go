//go:build unix && !race

package memsim

import (
	"syscall"
	"unsafe"
)

// mapWords maps words zeroed 64-bit words of anonymous private memory,
// outside the Go heap. Race builds take the heap path (map_other.go)
// instead: the race detector shadows only Go-allocated memory, so on a
// mapping it would miss every race on payload words.
func mapWords(words uint64) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, int(words*8), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), words), nil
}

// unmapWords releases a mapping mapWords returned.
func unmapWords(w []uint64) error {
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8))
}
