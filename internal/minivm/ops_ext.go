package minivm

// Extended opcodes: enough arithmetic and control flow to express the
// column-store style guest programs (filtered aggregation, §5.1's
// database motivation) rather than only straight-line sums.
const (
	// OpMul: regs[A] = regs[B] * regs[C].
	OpMul Op = iota + OpHalt + 1
	// OpSub: regs[A] = regs[B] - regs[C].
	OpSub
	// OpAnd: regs[A] = regs[B] & regs[C].
	OpAnd
	// OpOr: regs[A] = regs[B] | regs[C].
	OpOr
	// OpShr: regs[A] = regs[B] >> Imm.
	OpShr
	// OpJz: if regs[A] == 0, jump to absolute pc Imm.
	OpJz
	// OpGtImm: regs[A] = 1 if regs[B] > Imm else 0.
	OpGtImm
)

// interpretExt executes an extended opcode on the interpreter tier,
// returning the next pc or an error for unknown opcodes.
func (vm *VM) interpretExt(in *Instr, pc int) (int, bool) {
	switch in.Op {
	case OpMul:
		vm.regs[in.A] = vm.regs[in.B] * vm.regs[in.C]
	case OpSub:
		vm.regs[in.A] = vm.regs[in.B] - vm.regs[in.C]
	case OpAnd:
		vm.regs[in.A] = vm.regs[in.B] & vm.regs[in.C]
	case OpOr:
		vm.regs[in.A] = vm.regs[in.B] | vm.regs[in.C]
	case OpShr:
		vm.regs[in.A] = vm.regs[in.B] >> (in.Imm & 63)
	case OpJz:
		if vm.regs[in.A] == 0 {
			return int(in.Imm), true
		}
	case OpGtImm:
		if vm.regs[in.B] > in.Imm {
			vm.regs[in.A] = 1
		} else {
			vm.regs[in.A] = 0
		}
	default:
		return 0, false
	}
	return pc + 1, true
}

// compileExt lowers an extended opcode, returning nil when the opcode is
// not an extended one.
func (vm *VM) compileExt(pc int, in Instr) compiledFn {
	next := pc + 1
	a, b, c := in.A, in.B, in.C
	imm := in.Imm
	switch in.Op {
	case OpMul:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] * vm.regs[c]; return next, nil }
	case OpSub:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] - vm.regs[c]; return next, nil }
	case OpAnd:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] & vm.regs[c]; return next, nil }
	case OpOr:
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] | vm.regs[c]; return next, nil }
	case OpShr:
		shift := imm & 63
		return func(vm *VM) (int, error) { vm.regs[a] = vm.regs[b] >> shift; return next, nil }
	case OpJz:
		target := int(imm)
		return func(vm *VM) (int, error) {
			if vm.regs[a] == 0 {
				return target, nil
			}
			return next, nil
		}
	case OpGtImm:
		return func(vm *VM) (int, error) {
			if vm.regs[b] > imm {
				vm.regs[a] = 1
			} else {
				vm.regs[a] = 0
			}
			return next, nil
		}
	default:
		return nil
	}
}
