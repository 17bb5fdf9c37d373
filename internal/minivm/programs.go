package minivm

// Program builders for the workloads the paper's figures run in the guest
// language. Programs are plain bytecode: the same program text runs over
// any access path, which is the interoperability point — only the binding
// changes.

// Registers used by the canonical loops.
const (
	regSum  = 0
	regI    = 1
	regN    = 2
	regTmp  = 3
	regCond = 4
	regTmp2 = 5
)

// SumIterProgram builds the paper's Function 4 aggregation over iterator
// slot 0 of array slot 0: sum += it.get(); it.next() for n elements.
func SumIterProgram(n uint64) Program {
	return Program{
		Arrays: 1,
		Iters:  1,
		Code: []Instr{
			{Op: OpConst, A: regSum, Imm: 0},
			{Op: OpConst, A: regI, Imm: 0},
			{Op: OpConst, A: regN, Imm: n},
			// loop: (pc 3)
			{Op: OpIterGet, A: regTmp, B: 0},
			{Op: OpAdd, A: regSum, B: regSum, C: regTmp},
			{Op: OpIterNext, B: 0},
			{Op: OpAddImm, A: regI, B: regI, Imm: 1},
			{Op: OpLt, A: regCond, B: regI, C: regN},
			{Op: OpJnz, A: regCond, Imm: 3},
			{Op: OpHalt, A: regSum},
		},
	}
}

// SumTwoIterProgram aggregates two arrays element-wise (the §5.1 workload
// sum += a1[i] + a2[i]) over iterator slots 0 and 1.
func SumTwoIterProgram(n uint64) Program {
	return Program{
		Arrays: 2,
		Iters:  2,
		Code: []Instr{
			{Op: OpConst, A: regSum, Imm: 0},
			{Op: OpConst, A: regI, Imm: 0},
			{Op: OpConst, A: regN, Imm: n},
			// loop: (pc 3)
			{Op: OpIterGet, A: regTmp, B: 0},
			{Op: OpIterGet, A: regTmp2, B: 1},
			{Op: OpAdd, A: regTmp, B: regTmp, C: regTmp2},
			{Op: OpAdd, A: regSum, B: regSum, C: regTmp},
			{Op: OpIterNext, B: 0},
			{Op: OpIterNext, B: 1},
			{Op: OpAddImm, A: regI, B: regI, Imm: 1},
			{Op: OpLt, A: regCond, B: regI, C: regN},
			{Op: OpJnz, A: regCond, Imm: 3},
			{Op: OpHalt, A: regSum},
		},
	}
}
