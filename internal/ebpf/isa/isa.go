// Package isa defines the simulated eBPF instruction set.
//
// The encoding follows the classic Linux eBPF layout: every instruction
// carries an 8-bit opcode, two 4-bit register fields, a 16-bit signed
// offset, and a 32-bit signed immediate. The opcode is split into a
// 3-bit class, a source bit, and a 4-bit operation (for ALU/JMP classes)
// or size/mode bits (for load/store classes).
//
// The set deliberately mirrors the restrictions the paper builds on:
// there are no SIMD instructions, no FFS/POPCNT/bit-manipulation
// instructions, and calls are limited to registered helpers and kfuncs.
package isa

import "fmt"

// Reg is an eBPF register number. R0 holds return values, R1-R5 are
// caller-saved argument registers, R6-R9 are callee-saved, and R10 is
// the read-only frame pointer.
type Reg uint8

// Register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10

	// NumRegs is the total number of architectural registers.
	NumRegs = 11

	// RFP is an alias for the frame pointer register.
	RFP = R10
)

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Instruction classes (low 3 bits of the opcode).
const (
	ClassLD    = 0x00 // non-standard loads (LD_IMM64)
	ClassLDX   = 0x01 // load from memory into register
	ClassST    = 0x02 // store immediate to memory
	ClassSTX   = 0x03 // store register to memory
	ClassALU   = 0x04 // 32-bit arithmetic
	ClassJMP   = 0x05 // 64-bit jumps, call, exit
	ClassJMP32 = 0x06 // 32-bit compare jumps
	ClassALU64 = 0x07 // 64-bit arithmetic
)

// Source bit for ALU/JMP classes: operand is an immediate (K) or a
// register (X).
const (
	SrcK = 0x00
	SrcX = 0x08
)

// ALU operations (high 4 bits).
const (
	ALUAdd  = 0x00
	ALUSub  = 0x10
	ALUMul  = 0x20
	ALUDiv  = 0x30
	ALUOr   = 0x40
	ALUAnd  = 0x50
	ALULsh  = 0x60
	ALURsh  = 0x70
	ALUNeg  = 0x80
	ALUMod  = 0x90
	ALUXor  = 0xa0
	ALUMov  = 0xb0
	ALUArsh = 0xc0
	ALUEnd  = 0xd0 // byte swap; unused by our programs but decoded
)

// JMP operations (high 4 bits).
const (
	JmpJA   = 0x00
	JmpJEQ  = 0x10
	JmpJGT  = 0x20
	JmpJGE  = 0x30
	JmpJSET = 0x40
	JmpJNE  = 0x50
	JmpJSGT = 0x60
	JmpJSGE = 0x70
	JmpCall = 0x80
	JmpExit = 0x90
	JmpJLT  = 0xa0
	JmpJLE  = 0xb0
	JmpJSLT = 0xc0
	JmpJSLE = 0xd0
)

// Memory access sizes (bits 3-4 of load/store opcodes).
const (
	SizeW  = 0x00 // 4 bytes
	SizeH  = 0x08 // 2 bytes
	SizeB  = 0x10 // 1 byte
	SizeDW = 0x18 // 8 bytes
)

// Memory access modes (high 3 bits of load/store opcodes).
const (
	ModeIMM = 0x00 // used by LD_IMM64
	ModeMEM = 0x60 // regular register+offset addressing
)

// Pseudo source-register values for two special instructions.
const (
	// PseudoMapFD marks an LD_IMM64 whose immediate is a map handle.
	PseudoMapFD = 1
	// PseudoKfuncCall marks a CALL whose immediate is a kfunc ID.
	PseudoKfuncCall = 2
)

// SizeBytes returns the byte width encoded by a load/store size field.
func SizeBytes(sz uint8) int {
	switch sz {
	case SizeW:
		return 4
	case SizeH:
		return 2
	case SizeB:
		return 1
	case SizeDW:
		return 8
	}
	return 0
}

// Instruction is one decoded eBPF instruction. LD_IMM64 occupies two
// slots in a program; the second slot has Op==0 and carries the high 32
// bits of the immediate in Imm.
type Instruction struct {
	Op  uint8
	Dst Reg
	Src Reg
	Off int16
	Imm int32
}

// Class returns the instruction class bits.
func (ins Instruction) Class() uint8 { return ins.Op & 0x07 }

// ALUOp returns the operation bits for ALU/ALU64 instructions.
func (ins Instruction) ALUOp() uint8 { return ins.Op & 0xf0 }

// JmpOp returns the operation bits for JMP/JMP32 instructions.
func (ins Instruction) JmpOp() uint8 { return ins.Op & 0xf0 }

// SrcIsReg reports whether the second operand is a register.
func (ins Instruction) SrcIsReg() bool { return ins.Op&0x08 != 0 }

// MemSize returns the access width in bytes for load/store instructions.
func (ins Instruction) MemSize() int { return SizeBytes(ins.Op & 0x18) }

// IsLoadImm64 reports whether ins is the first slot of an LD_IMM64.
func (ins Instruction) IsLoadImm64() bool {
	return ins.Op == ClassLD|ModeIMM|SizeDW
}

// IsCall reports whether ins is a helper or kfunc call.
func (ins Instruction) IsCall() bool {
	return ins.Class() == ClassJMP && ins.JmpOp() == JmpCall
}

// IsExit reports whether ins terminates the program.
func (ins Instruction) IsExit() bool {
	return ins.Class() == ClassJMP && ins.JmpOp() == JmpExit
}

// BranchTargets returns a bitmap over prog marking every instruction
// index some branch can transfer control to. Call and exit never
// branch; every other JMP/JMP32 operation is treated conservatively as
// a potential branch (including the ones the interpreter evaluates to
// "never taken"), so a consumer that refuses to optimize across marked
// instructions — the VM's peephole fuser — stays sound even for raw
// bit patterns the second slot of an LD_IMM64 can spell out.
// Out-of-range targets are dropped; the interpreter rejects them at
// runtime anyway.
func BranchTargets(prog []Instruction) []bool {
	t := make([]bool, len(prog))
	for pc, ins := range prog {
		switch ins.Class() {
		case ClassJMP, ClassJMP32:
			if op := ins.JmpOp(); op == JmpCall || op == JmpExit {
				continue
			}
			if d := pc + 1 + int(ins.Off); d >= 0 && d < len(prog) {
				t[d] = true
			}
		}
	}
	return t
}

var aluNames = map[uint8]string{
	ALUAdd: "add", ALUSub: "sub", ALUMul: "mul", ALUDiv: "div",
	ALUOr: "or", ALUAnd: "and", ALULsh: "lsh", ALURsh: "rsh",
	ALUNeg: "neg", ALUMod: "mod", ALUXor: "xor", ALUMov: "mov",
	ALUArsh: "arsh", ALUEnd: "end",
}

var jmpNames = map[uint8]string{
	JmpJA: "ja", JmpJEQ: "jeq", JmpJGT: "jgt", JmpJGE: "jge",
	JmpJSET: "jset", JmpJNE: "jne", JmpJSGT: "jsgt", JmpJSGE: "jsge",
	JmpCall: "call", JmpExit: "exit", JmpJLT: "jlt", JmpJLE: "jle",
	JmpJSLT: "jslt", JmpJSLE: "jsle",
}

var sizeNames = map[uint8]string{SizeW: "w", SizeH: "h", SizeB: "b", SizeDW: "dw"}

// String renders a human-readable disassembly of the instruction.
func (ins Instruction) String() string {
	switch ins.Class() {
	case ClassALU, ClassALU64:
		name := aluNames[ins.ALUOp()]
		if ins.Class() == ClassALU {
			name += "32"
		}
		if ins.ALUOp() == ALUNeg {
			return fmt.Sprintf("%s %s", name, ins.Dst)
		}
		if ins.SrcIsReg() {
			return fmt.Sprintf("%s %s, %s", name, ins.Dst, ins.Src)
		}
		return fmt.Sprintf("%s %s, %d", name, ins.Dst, ins.Imm)
	case ClassJMP, ClassJMP32:
		op := ins.JmpOp()
		name := jmpNames[op]
		if ins.Class() == ClassJMP32 {
			name += "32"
		}
		switch op {
		case JmpExit:
			return "exit"
		case JmpCall:
			if ins.Src == PseudoKfuncCall {
				return fmt.Sprintf("call kfunc#%d", ins.Imm)
			}
			return fmt.Sprintf("call helper#%d", ins.Imm)
		case JmpJA:
			return fmt.Sprintf("ja %+d", ins.Off)
		}
		if ins.SrcIsReg() {
			return fmt.Sprintf("%s %s, %s, %+d", name, ins.Dst, ins.Src, ins.Off)
		}
		return fmt.Sprintf("%s %s, %d, %+d", name, ins.Dst, ins.Imm, ins.Off)
	case ClassLDX:
		return fmt.Sprintf("ldx%s %s, [%s%+d]", sizeNames[ins.Op&0x18], ins.Dst, ins.Src, ins.Off)
	case ClassSTX:
		return fmt.Sprintf("stx%s [%s%+d], %s", sizeNames[ins.Op&0x18], ins.Dst, ins.Off, ins.Src)
	case ClassST:
		return fmt.Sprintf("st%s [%s%+d], %d", sizeNames[ins.Op&0x18], ins.Dst, ins.Off, ins.Imm)
	case ClassLD:
		if ins.IsLoadImm64() {
			if ins.Src == PseudoMapFD {
				return fmt.Sprintf("ldmapfd %s, map#%d", ins.Dst, ins.Imm)
			}
			return fmt.Sprintf("ldimm64 %s, lo32=%d", ins.Dst, ins.Imm)
		}
	}
	return fmt.Sprintf("op#%#02x dst=%s src=%s off=%d imm=%d", ins.Op, ins.Dst, ins.Src, ins.Off, ins.Imm)
}

// Disassemble renders a whole program, one instruction per line,
// resolving LD_IMM64 pairs.
func Disassemble(prog []Instruction) string {
	out := ""
	for i := 0; i < len(prog); i++ {
		ins := prog[i]
		if ins.IsLoadImm64() && i+1 < len(prog) {
			hi := prog[i+1]
			v := uint64(uint32(ins.Imm)) | uint64(uint32(hi.Imm))<<32
			if ins.Src == PseudoMapFD {
				out += fmt.Sprintf("%4d: ldmapfd %s, map#%d\n", i, ins.Dst, ins.Imm)
			} else {
				out += fmt.Sprintf("%4d: ldimm64 %s, %#x\n", i, ins.Dst, v)
			}
			i++
			continue
		}
		out += fmt.Sprintf("%4d: %s\n", i, ins)
	}
	return out
}
