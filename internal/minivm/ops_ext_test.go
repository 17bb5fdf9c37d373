package minivm

import (
	"testing"
	"testing/quick"
)

// runBoth runs a program through both tiers and checks they agree.
func runBoth(t *testing.T, prog Program, bindings []*ArrayBinding, bindIters func(vm *VM) error) uint64 {
	t.Helper()
	results := make([]uint64, 2)
	for tier := 0; tier < 2; tier++ {
		vm, err := New(prog, bindings)
		if err != nil {
			t.Fatal(err)
		}
		if bindIters != nil {
			if err := bindIters(vm); err != nil {
				t.Fatal(err)
			}
		}
		if tier == 0 {
			results[0], err = vm.Interpret()
		} else {
			var cp *Compiled
			cp, err = vm.Compile()
			if err == nil {
				results[1], err = cp.Run()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if results[0] != results[1] {
		t.Fatalf("tiers disagree: interpreted %d, compiled %d", results[0], results[1])
	}
	return results[0]
}

func TestExtendedArithmeticOps(t *testing.T) {
	// Compute ((7*6) - 2) & 0xFC | 1 >> 1 step by step.
	prog := Program{Code: []Instr{
		{Op: OpConst, A: 0, Imm: 7},
		{Op: OpConst, A: 1, Imm: 6},
		{Op: OpMul, A: 2, B: 0, C: 1}, // 42
		{Op: OpConst, A: 3, Imm: 2},
		{Op: OpSub, A: 2, B: 2, C: 3}, // 40
		{Op: OpConst, A: 3, Imm: 0xFC},
		{Op: OpAnd, A: 2, B: 2, C: 3}, // 40
		{Op: OpConst, A: 3, Imm: 1},
		{Op: OpOr, A: 2, B: 2, C: 3},    // 41
		{Op: OpShr, A: 2, B: 2, Imm: 1}, // 20
		{Op: OpHalt, A: 2},
	}}
	if got := runBoth(t, prog, nil, nil); got != 20 {
		t.Errorf("result = %d, want 20", got)
	}
}

func TestJzAndGtImm(t *testing.T) {
	// if 5 > 3 then 100 else 200.
	prog := Program{Code: []Instr{
		{Op: OpConst, A: 0, Imm: 5},
		{Op: OpGtImm, A: 1, B: 0, Imm: 3},
		{Op: OpJz, A: 1, Imm: 5},
		{Op: OpConst, A: 2, Imm: 100},
		{Op: OpHalt, A: 2},
		{Op: OpConst, A: 2, Imm: 200}, // pc 5
		{Op: OpHalt, A: 2},
	}}
	if got := runBoth(t, prog, nil, nil); got != 100 {
		t.Errorf("taken branch = %d, want 100", got)
	}
	prog.Code[0].Imm = 2 // 2 > 3 is false -> else branch
	if got := runBoth(t, prog, nil, nil); got != 200 {
		t.Errorf("fallthrough branch = %d, want 200", got)
	}
}

func TestShrMasksShiftAmount(t *testing.T) {
	prog := Program{Code: []Instr{
		{Op: OpConst, A: 0, Imm: 1 << 40},
		{Op: OpShr, A: 0, B: 0, Imm: 64 + 40}, // masked to 40
		{Op: OpHalt, A: 0},
	}}
	if got := runBoth(t, prog, nil, nil); got != 1 {
		t.Errorf("masked shift = %d, want 1", got)
	}
}

func TestFilteredSumProgram(t *testing.T) {
	const n = 500
	const threshold = 700
	hsV := newHarness(t, n, 10)
	hsW := newHarness(t, n, 16)
	var want uint64
	for i := 0; i < n; i++ {
		if hsV.data[i] > threshold {
			want += hsV.data[i] * hsW.data[i]
		}
	}
	prog := FilteredSumProgram(n, threshold)
	bindings := []*ArrayBinding{hsV.binding(t, PathSmart), hsW.binding(t, PathSmart)}
	got := runBoth(t, prog, bindings, func(vm *VM) error {
		if err := vm.BindIter(0, 0, 0); err != nil {
			return err
		}
		return vm.BindIter(1, 1, 0)
	})
	if got != want {
		t.Errorf("filtered sum = %d, want %d", got, want)
	}
}

// Property: the guest filtered sum matches the host computation for any
// threshold, through the managed path.
func TestQuickFilteredSum(t *testing.T) {
	f := func(threshold uint16) bool {
		const n = 200
		values := make([]uint64, n)
		weights := make([]uint64, n)
		var want uint64
		for i := range values {
			values[i] = uint64(i * 37 % 1024)
			weights[i] = uint64(i % 64)
			if values[i] > uint64(threshold%1024) {
				want += values[i] * weights[i]
			}
		}
		vm, err := New(FilteredSumProgram(n, uint64(threshold%1024)), []*ArrayBinding{
			{Path: PathManaged, Managed: values},
			{Path: PathManaged, Managed: weights},
		})
		if err != nil {
			return false
		}
		if err := vm.BindIter(0, 0, 0); err != nil {
			return false
		}
		if err := vm.BindIter(1, 1, 0); err != nil {
			return false
		}
		cp, err := vm.Compile()
		if err != nil {
			return false
		}
		got, err := cp.Run()
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FilteredSumProgram builds the column-store guest query
// `SELECT SUM(values[i] * weights[i]) WHERE values[i] > threshold` over
// iterator slots 0 (values) and 1 (weights) of array slots 0 and 1.
func FilteredSumProgram(n uint64, threshold uint64) Program {
	const (
		rSum  = 0
		rI    = 1
		rN    = 2
		rVal  = 3
		rW    = 4
		rCond = 5
		rProd = 6
	)
	return Program{
		Arrays: 2,
		Iters:  2,
		Code: []Instr{
			{Op: OpConst, A: rSum, Imm: 0},
			{Op: OpConst, A: rI, Imm: 0},
			{Op: OpConst, A: rN, Imm: n},
			// loop: (pc 3)
			{Op: OpIterGet, A: rVal, B: 0},
			{Op: OpIterGet, A: rW, B: 1},
			{Op: OpGtImm, A: rCond, B: rVal, Imm: threshold},
			{Op: OpJz, A: rCond, Imm: 9}, // skip accumulation
			{Op: OpMul, A: rProd, B: rVal, C: rW},
			{Op: OpAdd, A: rSum, B: rSum, C: rProd},
			// skip: (pc 9)
			{Op: OpIterNext, B: 0},
			{Op: OpIterNext, B: 1},
			{Op: OpAddImm, A: rI, B: rI, Imm: 1},
			{Op: OpLt, A: rCond, B: rI, C: rN},
			{Op: OpJnz, A: rCond, Imm: 3},
			{Op: OpHalt, A: rSum},
		},
	}
}
