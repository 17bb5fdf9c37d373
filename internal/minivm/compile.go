package minivm

import (
	"errors"
	"fmt"

	"smartarrays/internal/core"
)

// compiledFn executes one instruction and returns the next pc.
type compiledFn func(vm *VM) (next int, err error)

// Compiled is a program lowered to closure-threaded code with array and
// iterator accesses specialized against their bindings — the VM's
// equivalent of GraalVM just-in-time compiling the guest loop together
// with the inlined smart-array implementation (§3.2, §4.3).
type Compiled struct {
	vm   *VM
	code []compiledFn
}

// Compile lowers the VM's program. It must be called after all iterator
// slots used by the program are bound, because iterator ops specialize on
// the binding: a PathSmart iterator op type-switches once on the concrete
// iterator (U64/U32/Compressed) and emits a closure with no interface
// dispatch — the profiled-bits fast path; a PathJNI op emits the boundary
// call; managed/unsafe ops emit direct slice indexing. Compiled PathSmart
// loads and bound iterators keep the words they resolved, like
// interop.UnsafeWords: no array they read may be freed, re-encoded or
// migrated while the compiled program is in use.
func (vm *VM) Compile() (*Compiled, error) {
	code := make([]compiledFn, len(vm.prog.Code))
	for pc, in := range vm.prog.Code {
		fn, err := vm.compileInstr(pc, in)
		if err != nil {
			return nil, fmt.Errorf("minivm: pc %d: %w", pc, err)
		}
		code[pc] = fn
	}
	return &Compiled{vm: vm, code: code}, nil
}

func (vm *VM) compileInstr(pc int, in Instr) (compiledFn, error) {
	next := pc + 1
	a, b, c := in.A, in.B, in.C
	imm := in.Imm
	switch in.Op {
	case OpConst:
		return func(vm *VM) (int, error) { vm.regs[a] = imm; return next, nil }, nil
	case OpMove:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b]; return next, nil }, nil
	case OpAdd:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] + vm.regs[c]; return next, nil }, nil
	case OpAddImm:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] + imm; return next, nil }, nil
	case OpLt:
		return func(vm *VM) (int, error) {
			if vm.regs[b] < vm.regs[c] {
				vm.regs[a] = 1
			} else {
				vm.regs[a] = 0
			}
			return next, nil
		}, nil
	case OpJnz:
		target := int(imm)
		return func(vm *VM) (int, error) {
			if vm.regs[a] != 0 {
				return target, nil
			}
			return next, nil
		}, nil
	case OpJmp:
		target := int(imm)
		return func(vm *VM) (int, error) { return target, nil }, nil
	case OpHalt:
		return func(vm *VM) (int, error) { return -1, nil }, nil
	case OpLoad:
		return vm.compileLoad(a, int(b), c, next)
	case OpIterGet:
		return vm.compileIterGet(a, int(b), next)
	case OpIterNext:
		return vm.compileIterNext(int(b), next)
	default:
		if fn := vm.compileExt(pc, in); fn != nil {
			return fn, nil
		}
		return nil, fmt.Errorf("illegal opcode %d", in.Op)
	}
}

func (vm *VM) compileLoad(a uint8, slot int, c uint8, next int) (compiledFn, error) {
	if slot < 0 || slot >= len(vm.bindings) {
		return nil, fmt.Errorf("array slot %d out of range", slot)
	}
	bind := vm.bindings[slot]
	switch bind.Path {
	case PathManaged:
		data := bind.Managed
		return func(vm *VM) (int, error) { vm.regs[a] = data[vm.regs[c]]; return next, nil }, nil
	case PathUnsafe:
		data := bind.Unsafe
		return func(vm *VM) (int, error) { vm.regs[a] = data[vm.regs[c]]; return next, nil }, nil
	case PathJNI:
		j, h, s := bind.JNI, bind.Handle, bind.Socket
		return func(vm *VM) (int, error) {
			v, err := j.Get(h, s, vm.regs[c])
			vm.regs[a] = v
			return next, err
		}, nil
	default: // PathSmart: resolve once, profile the layout, inline the access
		arr, err := bind.EP.ResolveArray(bind.Handle)
		if err != nil {
			return nil, err
		}
		v := arr.View(bind.Socket)
		// Plain loads from the typed view only while the bound layout is
		// BitPacked at 64 or 32 bits; anything else reads through the codec.
		if words, ok := core.WordsAs[uint64](&v); ok {
			return func(vm *VM) (int, error) { vm.regs[a] = words[vm.regs[c]]; return next, nil }, nil
		}
		if words, ok := core.WordsAs[uint32](&v); ok {
			return func(vm *VM) (int, error) { vm.regs[a] = uint64(words[vm.regs[c]]); return next, nil }, nil
		}
		return func(vm *VM) (int, error) {
			vm.regs[a] = v.Get(vm.regs[c])
			return next, nil
		}, nil
	}
}

func (vm *VM) compileIterGet(a uint8, slot int, next int) (compiledFn, error) {
	if slot < 0 || slot >= len(vm.iters) {
		return nil, fmt.Errorf("iterator slot %d out of range", slot)
	}
	st := &vm.iters[slot]
	if st.binding == nil {
		return nil, errors.New("iterator slot unbound at compile time")
	}
	switch st.binding.Path {
	case PathManaged:
		data := st.binding.Managed
		return func(vm *VM) (int, error) { vm.regs[a] = data[vm.iters[slot].pos]; return next, nil }, nil
	case PathUnsafe:
		data := st.binding.Unsafe
		return func(vm *VM) (int, error) { vm.regs[a] = data[vm.iters[slot].pos]; return next, nil }, nil
	case PathJNI:
		j, h := st.binding.JNI, st.handle
		return func(vm *VM) (int, error) {
			v, err := j.IterGet(h)
			vm.regs[a] = v
			return next, err
		}, nil
	default: // PathSmart: fuse the concrete iterator, no interface dispatch
		switch it := st.it.(type) {
		case *core.U64Iterator:
			return func(vm *VM) (int, error) { vm.regs[a] = it.Get(); return next, nil }, nil
		case *core.U32Iterator:
			return func(vm *VM) (int, error) { vm.regs[a] = it.Get(); return next, nil }, nil
		case *core.CompressedIterator:
			return func(vm *VM) (int, error) { vm.regs[a] = it.Get(); return next, nil }, nil
		default:
			return func(vm *VM) (int, error) { vm.regs[a] = st.it.Get(); return next, nil }, nil
		}
	}
}

func (vm *VM) compileIterNext(slot int, next int) (compiledFn, error) {
	if slot < 0 || slot >= len(vm.iters) {
		return nil, fmt.Errorf("iterator slot %d out of range", slot)
	}
	st := &vm.iters[slot]
	if st.binding == nil {
		return nil, errors.New("iterator slot unbound at compile time")
	}
	switch st.binding.Path {
	case PathManaged, PathUnsafe:
		return func(vm *VM) (int, error) { vm.iters[slot].pos++; return next, nil }, nil
	case PathJNI:
		j, h := st.binding.JNI, st.handle
		return func(vm *VM) (int, error) { return next, j.IterNext(h) }, nil
	default:
		switch it := st.it.(type) {
		case *core.U64Iterator:
			return func(vm *VM) (int, error) { it.Next(); return next, nil }, nil
		case *core.U32Iterator:
			return func(vm *VM) (int, error) { it.Next(); return next, nil }, nil
		case *core.CompressedIterator:
			return func(vm *VM) (int, error) { it.Next(); return next, nil }, nil
		default:
			return func(vm *VM) (int, error) { st.it.Next(); return next, nil }, nil
		}
	}
}

// Run executes the compiled code and returns the halt register's value.
func (cp *Compiled) Run() (uint64, error) {
	vm := cp.vm
	pc := 0
	var haltReg uint8
	// Find the halt register lazily: OpHalt closures return -1; the result
	// register is recorded from the program text.
	for _, in := range vm.prog.Code {
		if in.Op == OpHalt {
			haltReg = in.A
			break
		}
	}
	for pc >= 0 && pc < len(cp.code) {
		next, err := cp.code[pc](vm)
		if err != nil {
			return 0, err
		}
		pc = next
	}
	return vm.regs[haltReg], nil
}
