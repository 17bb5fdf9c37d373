// Adaptive: the §6 workflow end to end — measure a workload with the
// flexible initial configuration, derive a profile, let the adaptivity
// engine pick a configuration, and restructure the array on the fly.
//
// Run on both Table 1 machines to see the engine choose differently: the
// 8-core machine has no spare compute for decompression, the 18-core one
// does.
package main

import (
	"fmt"

	"smartarrays"
)

func main() {
	for _, spec := range []*smartarrays.Machine{
		smartarrays.SmallMachine(), smartarrays.LargeMachine(),
	} {
		decideFor(spec)
	}
}

func decideFor(spec *smartarrays.Machine) {
	sys := smartarrays.NewSystem(spec)
	fmt.Println("machine:", spec)

	// A read-only analytical dataset: values fit in 33 bits, scanned many
	// times. Start with the paper's flexible measurement configuration:
	// uncompressed, interleaved.
	const n = 1 << 20
	arr, err := sys.Allocate(smartarrays.Config{
		Length: n, Bits: 64, Placement: smartarrays.Interleaved,
	})
	if err != nil {
		panic(err)
	}
	defer arr.Free()
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i) & ((1 << 33) - 1)
	}
	arr.InitRange(0, 0, values)

	// Measure: the profile captures execution rate, bandwidth, and access
	// counts of the scan workload (modeled at the paper's 4 GB scale).
	profile := sys.ProfileScanWorkload(1<<29, 10, 33)

	// Declare the software characteristics (Figure 13's left column).
	traits := smartarrays.Traits{
		ReadOnly:                         true,
		MostlyReads:                      true,
		MultipleLinearAccessesPerElement: true,
	}

	// Decide and apply.
	choice := sys.Recommend(traits, profile)
	fmt.Printf("  recommendation: %v (predicted speedup %.2fx)\n", choice, choice.PredictedSpeedup)
	fmt.Printf("  rationale: %s\n", choice.Reason)

	before := sys.SumArray(arr)
	if _, err := arr.Migrate(choice.Placement, choice.Socket); err != nil {
		panic(err)
	}
	after := sys.SumArray(arr)
	if before != after {
		panic("restructuring changed the data")
	}
	fmt.Printf("  restructured to %v; checksum unchanged (%d)\n\n", arr.Placement(), after)
}
