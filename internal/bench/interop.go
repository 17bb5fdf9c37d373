package bench

import (
	"fmt"
	"time"

	"smartarrays/internal/core"
	"smartarrays/internal/interop"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/minivm"
	"smartarrays/internal/rts"
)

// InteropResult is one bar of Figure 3: a single-threaded aggregation of
// one array through one access path.
type InteropResult struct {
	// Path names the bar: "C++", "Java", "Java with JNI", "Java with
	// unsafe", "Java with smart arrays".
	Path string
	// NsPerElem is the measured wall time per element on this host.
	NsPerElem float64
	// RelativeToCPP is the slowdown versus the native bar.
	RelativeToCPP float64
	// BoundaryCrossings counts JNI marshalling round trips (0 elsewhere).
	BoundaryCrossings uint64
	// Interoperable / SmartFunctionality reproduce the figure's
	// annotation: which paths keep the C++ smart functionalities without
	// re-implementation, and which are usable from the guest language.
	Interoperable      bool
	SmartFunctionality bool
	// Sum is the computed result (all paths must agree).
	Sum uint64
}

// RunFigure3 reproduces Figure 3: single-threaded aggregation through the
// five access paths. Unlike the modeled NUMA experiments, these are real
// measured wall times — the quantity being compared is boundary-crossing
// overhead, which exists for real in this reproduction.
//
// Deviation note (see EXPERIMENTS.md): the paper's GraalVM compiles guest
// code to native machine code, making Java bars equal C++; the mini-VM's
// compiled tier is closure-threaded, so every guest bar carries a uniform
// VM overhead. The reproduced contrast is C++ ≈ native, guest paths
// uniform, JNI several times slower than every other guest path.
func RunFigure3(opts Options) ([]InteropResult, error) {
	n := opts.Elements
	rt := rts.New(machine.X52Small())
	opts.instrument(rt)
	ep := interop.NewEntryPoints(rt.Memory())
	a, err := core.Allocate(rt.Memory(), core.Config{Length: n, Bits: 64, Placement: memsim.Interleaved})
	if err != nil {
		return nil, err
	}
	defer a.Free()
	handle := ep.Registry().RegisterArray(a)

	managed := make([]uint64, n)
	var want uint64
	for i := uint64(0); i < n; i++ {
		v := initFormula(i, ^uint64(0)>>1)
		a.Init(0, i, v)
		managed[i] = v
		want += v
	}

	var rows []InteropResult
	addRow := func(name string, interoperable, smart bool, crossings uint64, run func() (uint64, error)) error {
		start := time.Now()
		sum, err := run()
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		if opts.Verify && sum != want {
			return fmt.Errorf("bench: %s: sum %d != %d", name, sum, want)
		}
		rows = append(rows, InteropResult{
			Path:               name,
			NsPerElem:          float64(elapsed.Nanoseconds()) / float64(n),
			BoundaryCrossings:  crossings,
			Interoperable:      interoperable,
			SmartFunctionality: smart,
			Sum:                sum,
		})
		return nil
	}

	// C++: the native loop over the array via the concrete iterator.
	if err := addRow("C++", false, true, 0, func() (uint64, error) {
		return core.ReduceRange(a, 0, 0, n, core.ReduceSum), nil
	}); err != nil {
		return nil, err
	}

	// Java: the guest VM over its own managed array.
	if err := addRow("Java", false, false, 0, func() (uint64, error) {
		return runVM(minivm.SumIterProgram(n), &minivm.ArrayBinding{
			Path: minivm.PathManaged, Managed: managed,
		})
	}); err != nil {
		return nil, err
	}

	// Java with JNI: every element access crosses the marshalling boundary.
	jni := interop.NewJNIBoundary(ep)
	if err := addRow("Java with JNI", true, true, 0, func() (uint64, error) {
		return runVM(minivm.SumIterProgram(n), &minivm.ArrayBinding{
			Path: minivm.PathJNI, EP: ep, JNI: jni, Handle: handle,
		})
	}); err != nil {
		return nil, err
	}
	rows[len(rows)-1].BoundaryCrossings = jni.CallsMade

	// Java with unsafe: raw words, no smart functionality.
	words, err := ep.UnsafeWords(handle, 0)
	if err != nil {
		return nil, err
	}
	if err := addRow("Java with unsafe", false, false, 0, func() (uint64, error) {
		return runVM(minivm.SumIterProgram(n), &minivm.ArrayBinding{
			Path: minivm.PathUnsafe, Unsafe: words,
		})
	}); err != nil {
		return nil, err
	}

	// Java with smart arrays: the inlined entry-point path.
	if err := addRow("Java with smart arrays", true, true, 0, func() (uint64, error) {
		return runVM(minivm.SumIterProgram(n), &minivm.ArrayBinding{
			Path: minivm.PathSmart, EP: ep, Handle: handle,
		})
	}); err != nil {
		return nil, err
	}

	base := rows[0].NsPerElem
	for i := range rows {
		rows[i].RelativeToCPP = rows[i].NsPerElem / base
	}
	return rows, nil
}

func runVM(prog minivm.Program, binding *minivm.ArrayBinding) (uint64, error) {
	vm, err := minivm.New(prog, []*minivm.ArrayBinding{binding})
	if err != nil {
		return 0, err
	}
	if err := vm.BindIter(0, 0, 0); err != nil {
		return 0, err
	}
	cp, err := vm.Compile()
	if err != nil {
		return 0, err
	}
	return cp.Run()
}
