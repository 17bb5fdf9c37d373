package minivm

import (
	"testing"

	"smartarrays/internal/encoding"
	"smartarrays/internal/interop"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// harness builds an entry-point surface plus a filled smart array and the
// reference sum of its first n elements.
type harness struct {
	ep     *interop.EntryPoints
	handle int64
	data   []uint64
	sum    uint64
}

func newHarness(t *testing.T, n uint64, bits uint) *harness {
	t.Helper()
	mem := memsim.New(machine.X52Small())
	ep := interop.NewEntryPoints(mem)
	h, err := ep.SmartArrayAllocate(n, bits, memsim.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]uint64, n)
	var sum uint64
	mask := uint64(1)<<bits - 1
	if bits == 64 {
		mask = ^uint64(0)
	}
	for i := uint64(0); i < n; i++ {
		v := (i*2654435761 + 1) & mask
		data[i] = v
		sum += v
		if err := ep.SmartArrayInit(h, 0, i, v); err != nil {
			t.Fatal(err)
		}
	}
	return &harness{ep: ep, handle: h, data: data, sum: sum}
}

func (hs *harness) binding(t *testing.T, path AccessPath) *ArrayBinding {
	t.Helper()
	b := &ArrayBinding{Path: path, Socket: 0}
	switch path {
	case PathManaged:
		b.Managed = hs.data
	case PathJNI:
		b.EP = hs.ep
		b.JNI = interop.NewJNIBoundary(hs.ep)
		b.Handle = hs.handle
	case PathUnsafe:
		words, err := hs.ep.UnsafeWords(hs.handle, 0)
		if err != nil {
			t.Fatal(err)
		}
		b.Unsafe = words
	case PathSmart:
		b.EP = hs.ep
		b.Handle = hs.handle
	}
	return b
}

func TestInterpretSumAllPaths(t *testing.T) {
	const n = 500
	hs := newHarness(t, n, 64) // 64-bit so unsafe raw words equal elements
	for _, path := range []AccessPath{PathManaged, PathJNI, PathUnsafe, PathSmart} {
		vm, err := New(SumIterProgram(n), []*ArrayBinding{hs.binding(t, path)})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.BindIter(0, 0, 0); err != nil {
			t.Fatal(err)
		}
		got, err := vm.Interpret()
		if err != nil {
			t.Fatalf("path %v: %v", path, err)
		}
		if got != hs.sum {
			t.Errorf("path %v: sum = %d, want %d", path, got, hs.sum)
		}
	}
}

func TestCompiledSumAllPaths(t *testing.T) {
	const n = 500
	for _, bits := range []uint{32, 33, 64} {
		hs := newHarness(t, n, bits)
		paths := []AccessPath{PathManaged, PathJNI, PathSmart}
		if bits == 64 {
			paths = append(paths, PathUnsafe)
		}
		for _, path := range paths {
			vm, err := New(SumIterProgram(n), []*ArrayBinding{hs.binding(t, path)})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.BindIter(0, 0, 0); err != nil {
				t.Fatal(err)
			}
			cp, err := vm.Compile()
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Run()
			if err != nil {
				t.Fatalf("bits=%d path %v: %v", bits, path, err)
			}
			if got != hs.sum {
				t.Errorf("bits=%d path %v: sum = %d, want %d", bits, path, got, hs.sum)
			}
		}
	}
}

func TestIndexedLoadsAllPaths(t *testing.T) {
	const n = 300
	hs := newHarness(t, n, 33)
	for _, path := range []AccessPath{PathManaged, PathJNI, PathSmart} {
		vm, err := New(SumIndexedProgram(n), []*ArrayBinding{hs.binding(t, path)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := vm.Interpret()
		if err != nil {
			t.Fatalf("path %v: %v", path, err)
		}
		if got != hs.sum {
			t.Errorf("path %v: sum = %d, want %d", path, got, hs.sum)
		}
		cp, err := vm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		got, err = cp.Run()
		if err != nil || got != hs.sum {
			t.Errorf("compiled path %v: sum = %d, %v; want %d", path, got, err, hs.sum)
		}
	}
}

// TestCompiledLoadsOnReencodedArray: a compiled PathSmart load indexes
// the words directly only while they are bit-packed at the profiled
// width; on a re-encoded array it must read through the codec.
func TestCompiledLoadsOnReencodedArray(t *testing.T) {
	const n = 300
	for _, bits := range []uint{32, 64} {
		for _, kind := range encoding.Kinds {
			hs := newHarness(t, n, bits)
			a, err := hs.ep.ResolveArray(hs.handle)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Reencode(kind, 0); err != nil {
				t.Fatal(err)
			}
			vm, err := New(SumIndexedProgram(n), []*ArrayBinding{hs.binding(t, PathSmart)})
			if err != nil {
				t.Fatal(err)
			}
			cp, err := vm.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := cp.Run(); err != nil || got != hs.sum {
				t.Errorf("bits=%d %v: compiled sum = %d, %v; want %d", bits, kind, got, err, hs.sum)
			}
		}
	}
}

func TestTwoArrayAggregation(t *testing.T) {
	const n = 256
	hs1 := newHarness(t, n, 33)
	hs2 := newHarness(t, n, 10)
	want := hs1.sum + hs2.sum
	vm, err := New(SumTwoIterProgram(n), []*ArrayBinding{
		hs1.binding(t, PathSmart), hs2.binding(t, PathSmart),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.BindIter(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := vm.BindIter(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := vm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Run()
	if err != nil || got != want {
		t.Errorf("two-array sum = %d, %v; want %d", got, err, want)
	}
}

func TestUnsafePathLosesSmartFunctionality(t *testing.T) {
	// The paper's point about unsafe: raw words of a compressed array are
	// NOT the elements. The unsafe path must produce a different (wrong)
	// sum for a 33-bit array, while the smart path stays correct.
	const n = 128
	hs := newHarness(t, n, 33)
	// Scan the first 64 positions only: a 128-element 33-bit array packs
	// into 66 words, so a raw scan past that would fault — itself a
	// demonstration of what unsafe loses.
	const scan = 64
	unsafeVM, err := New(SumIterProgram(scan), []*ArrayBinding{hs.binding(t, PathUnsafe)})
	if err != nil {
		t.Fatal(err)
	}
	if err := unsafeVM.BindIter(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := unsafeVM.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range hs.data[:scan] {
		want += v
	}
	if got == want {
		t.Error("unsafe raw-word scan of a compressed array accidentally produced the right sum")
	}
}

func TestNewRejectsBadBindings(t *testing.T) {
	if _, err := New(SumIterProgram(10), nil); err == nil {
		t.Error("missing bindings should fail")
	}
	if _, err := New(SumIterProgram(10), []*ArrayBinding{{Path: PathManaged}}); err == nil {
		t.Error("managed binding without storage should fail")
	}
	if _, err := New(SumIterProgram(10), []*ArrayBinding{{Path: PathJNI}}); err == nil {
		t.Error("jni binding without boundary should fail")
	}
	if _, err := New(SumIterProgram(10), []*ArrayBinding{{Path: AccessPath(77)}}); err == nil {
		t.Error("unknown path should fail")
	}
}

func TestBindIterValidation(t *testing.T) {
	hs := newHarness(t, 10, 64)
	vm, err := New(SumIterProgram(10), []*ArrayBinding{hs.binding(t, PathSmart)})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.BindIter(5, 0, 0); err == nil {
		t.Error("bad iterator slot should fail")
	}
	if err := vm.BindIter(0, 3, 0); err == nil {
		t.Error("bad array slot should fail")
	}
}

func TestCompileRequiresBoundIterators(t *testing.T) {
	hs := newHarness(t, 10, 64)
	vm, err := New(SumIterProgram(10), []*ArrayBinding{hs.binding(t, PathSmart)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Compile(); err == nil {
		t.Error("compiling with unbound iterator should fail")
	}
}

func TestInterpretIllegalProgram(t *testing.T) {
	vm, err := New(Program{Code: []Instr{{Op: Op(99)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Interpret(); err == nil {
		t.Error("illegal opcode should fail")
	}
	vm2, _ := New(Program{Code: []Instr{{Op: OpConst, A: 0, Imm: 1}}}, nil)
	if _, err := vm2.Interpret(); err == nil {
		t.Error("falling off the end should fail")
	}
}

func TestAccessPathString(t *testing.T) {
	for p, want := range map[AccessPath]string{
		PathManaged: "managed", PathJNI: "jni", PathUnsafe: "unsafe", PathSmart: "smartarray",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestJNICrossingsCounted(t *testing.T) {
	const n = 100
	hs := newHarness(t, n, 64)
	b := hs.binding(t, PathJNI)
	vm, err := New(SumIterProgram(n), []*ArrayBinding{b})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.BindIter(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Interpret(); err != nil {
		t.Fatal(err)
	}
	// At least two crossings per element (get + next) plus the iterator
	// allocation.
	if b.JNI.CallsMade < 2*n {
		t.Errorf("JNI crossings = %d, want >= %d", b.JNI.CallsMade, 2*n)
	}
}

// SumIndexedProgram aggregates array slot 0 with random-access loads
// (regs-indexed Get rather than an iterator) — the shape JNI is worst at.
func SumIndexedProgram(n uint64) Program {
	return Program{
		Arrays: 1,
		Code: []Instr{
			{Op: OpConst, A: regSum, Imm: 0},
			{Op: OpConst, A: regI, Imm: 0},
			{Op: OpConst, A: regN, Imm: n},
			// loop: (pc 3)
			{Op: OpLoad, A: regTmp, B: 0, C: regI},
			{Op: OpAdd, A: regSum, B: regSum, C: regTmp},
			{Op: OpAddImm, A: regI, B: regI, Imm: 1},
			{Op: OpLt, A: regCond, B: regI, C: regN},
			{Op: OpJnz, A: regCond, Imm: 3},
			{Op: OpHalt, A: regSum},
		},
	}
}
