// Quickstart: allocate a smart array, initialize it, scan it, and watch
// the smart functionalities (placement + bit compression) change the
// modeled resource picture.
package main

import (
	"fmt"

	"smartarrays"
)

func main() {
	// A system simulates one NUMA machine; presets encode the paper's
	// Table 1 machines.
	sys := smartarrays.NewSystem(smartarrays.LargeMachine())
	fmt.Println("machine:", sys.Spec())

	// Values up to 8 billion need 33 bits; the smart array packs them.
	const n = 1 << 20
	arr, err := sys.Allocate(smartarrays.Config{
		Length:    n,
		Bits:      33,
		Placement: smartarrays.Replicated,
	})
	if err != nil {
		panic(err)
	}
	defer arr.Free()

	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i) * 8000
	}
	arr.InitRange(0, 0, values) // socket 0 initializes; Init is the one-element form

	// Parallel aggregation over all simulated hardware threads; each
	// worker reads its own socket's replica.
	sum := sys.SumArray(arr)
	fmt.Printf("sum of %d elements: %d\n", n, sum)

	// The same data through the iterator API (paper Function 4).
	it := smartarrays.NewIterator(arr, 0, 0)
	var first3 []uint64
	for i := 0; i < 3; i++ {
		first3 = append(first3, it.Get())
		it.Next()
	}
	fmt.Println("first elements:", first3)

	// Memory accounting: 33-bit packing nearly halves the payload, while
	// replication doubles copies.
	fmt.Printf("payload: %d KiB compressed vs %d KiB uncompressed; footprint with replicas: %d KiB\n",
		arr.CompressedBytes()/1024, arr.UncompressedBytes()/1024, arr.FootprintBytes()/1024)

	// Restructure on the fly (the adaptivity engine's lever).
	if _, err := arr.Migrate(smartarrays.Interleaved, 0); err != nil {
		panic(err)
	}
	fmt.Printf("after migrating to %v: footprint %d KiB, sum still %d\n",
		arr.Placement(), arr.FootprintBytes()/1024, sys.SumArray(arr))
}
