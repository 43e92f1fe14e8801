// Package asm provides a small assembler for building simulated eBPF
// programs in Go. It offers typed emit methods for every instruction the
// VM executes, label-based control flow with backpatching, and a few
// macros (bounded memcpy, bounded loops) that expand to plain eBPF
// instructions, exactly as a C compiler targeting eBPF would emit them.
package asm

import (
	"fmt"

	"enetstl/internal/ebpf/isa"
)

// Convenient register aliases so program authors can write asm.R1.
const (
	R0  = isa.R0
	R1  = isa.R1
	R2  = isa.R2
	R3  = isa.R3
	R4  = isa.R4
	R5  = isa.R5
	R6  = isa.R6
	R7  = isa.R7
	R8  = isa.R8
	R9  = isa.R9
	R10 = isa.R10
)

// Cond names a jump condition for the Jmp* helpers.
type Cond uint8

// Jump conditions. Signed variants compare as two's-complement int64.
const (
	JEQ Cond = iota
	JNE
	JGT
	JGE
	JLT
	JLE
	JSGT
	JSGE
	JSLT
	JSLE
	JSET
)

var condOps = [...]uint8{
	JEQ: isa.JmpJEQ, JNE: isa.JmpJNE, JGT: isa.JmpJGT, JGE: isa.JmpJGE,
	JLT: isa.JmpJLT, JLE: isa.JmpJLE, JSGT: isa.JmpJSGT, JSGE: isa.JmpJSGE,
	JSLT: isa.JmpJSLT, JSLE: isa.JmpJSLE, JSET: isa.JmpJSET,
}

type fixup struct {
	pos   int    // instruction index whose Off needs patching
	label string // target label
}

// Builder accumulates instructions and resolves labels at Program time.
// The zero value is ready to use.
type Builder struct {
	ins    []isa.Instruction
	labels map[string]int
	fixes  []fixup
	errs   []error
}

// New returns an empty Builder.
func New() *Builder {
	return &Builder{labels: make(map[string]int)}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

func (b *Builder) emit(ins isa.Instruction) *Builder {
	b.ins = append(b.ins, ins)
	return b
}

// Raw appends a prebuilt instruction verbatim (for generators and
// tests; no label fixups apply to it).
func (b *Builder) Raw(ins isa.Instruction) *Builder { return b.emit(ins) }

// Label binds name to the next emitted instruction. Binding the same
// name twice is an error reported by Program.
func (b *Builder) Label(name string) *Builder {
	if b.labels == nil {
		b.labels = make(map[string]int)
	}
	if _, dup := b.labels[name]; dup {
		b.errf("label %q bound twice", name)
	}
	b.labels[name] = len(b.ins)
	return b
}

// --- ALU64 ---

func (b *Builder) alu64Reg(op uint8, dst, src isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassALU64 | isa.SrcX | op, Dst: dst, Src: src})
}

func (b *Builder) alu64Imm(op uint8, dst isa.Reg, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassALU64 | isa.SrcK | op, Dst: dst, Imm: imm})
}

// Mov copies src into dst (64-bit).
func (b *Builder) Mov(dst, src isa.Reg) *Builder { return b.alu64Reg(isa.ALUMov, dst, src) }

// MovImm loads a sign-extended 32-bit immediate into dst.
func (b *Builder) MovImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUMov, dst, imm) }

// Add, Sub, Mul, Div, Mod, And, Or, Xor, Lsh, Rsh, Arsh operate on
// 64-bit registers; the *Imm forms take a sign-extended immediate.

func (b *Builder) Add(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUAdd, dst, src) }
func (b *Builder) Sub(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUSub, dst, src) }
func (b *Builder) Mul(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUMul, dst, src) }
func (b *Builder) Div(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUDiv, dst, src) }
func (b *Builder) Mod(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUMod, dst, src) }
func (b *Builder) And(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUAnd, dst, src) }
func (b *Builder) Or(dst, src isa.Reg) *Builder   { return b.alu64Reg(isa.ALUOr, dst, src) }
func (b *Builder) Xor(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALUXor, dst, src) }
func (b *Builder) Lsh(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALULsh, dst, src) }
func (b *Builder) Rsh(dst, src isa.Reg) *Builder  { return b.alu64Reg(isa.ALURsh, dst, src) }
func (b *Builder) Arsh(dst, src isa.Reg) *Builder { return b.alu64Reg(isa.ALUArsh, dst, src) }
func (b *Builder) Neg(dst isa.Reg) *Builder       { return b.alu64Imm(isa.ALUNeg, dst, 0) }

func (b *Builder) AddImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUAdd, dst, imm) }
func (b *Builder) SubImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUSub, dst, imm) }
func (b *Builder) MulImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUMul, dst, imm) }
func (b *Builder) DivImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUDiv, dst, imm) }
func (b *Builder) ModImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUMod, dst, imm) }
func (b *Builder) AndImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUAnd, dst, imm) }
func (b *Builder) OrImm(dst isa.Reg, imm int32) *Builder  { return b.alu64Imm(isa.ALUOr, dst, imm) }
func (b *Builder) XorImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALUXor, dst, imm) }
func (b *Builder) LshImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALULsh, dst, imm) }
func (b *Builder) RshImm(dst isa.Reg, imm int32) *Builder { return b.alu64Imm(isa.ALURsh, dst, imm) }

// --- ALU32 (results are zero-extended to 64 bits, as in real eBPF) ---

func (b *Builder) alu32Reg(op uint8, dst, src isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassALU | isa.SrcX | op, Dst: dst, Src: src})
}

func (b *Builder) alu32Imm(op uint8, dst isa.Reg, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassALU | isa.SrcK | op, Dst: dst, Imm: imm})
}

func (b *Builder) Mov32(dst, src isa.Reg) *Builder          { return b.alu32Reg(isa.ALUMov, dst, src) }
func (b *Builder) Mov32Imm(dst isa.Reg, imm int32) *Builder { return b.alu32Imm(isa.ALUMov, dst, imm) }
func (b *Builder) Add32(dst, src isa.Reg) *Builder          { return b.alu32Reg(isa.ALUAdd, dst, src) }

// --- Loads and stores ---

func sizeBits(size int) (uint8, bool) {
	switch size {
	case 1:
		return isa.SizeB, true
	case 2:
		return isa.SizeH, true
	case 4:
		return isa.SizeW, true
	case 8:
		return isa.SizeDW, true
	}
	return 0, false
}

// Load emits dst = *(size*)(src + off).
func (b *Builder) Load(dst, src isa.Reg, off int16, size int) *Builder {
	sz, ok := sizeBits(size)
	if !ok {
		b.errf("load: bad size %d", size)
		return b
	}
	return b.emit(isa.Instruction{Op: isa.ClassLDX | isa.ModeMEM | sz, Dst: dst, Src: src, Off: off})
}

// Store emits *(size*)(dst + off) = src.
func (b *Builder) Store(dst isa.Reg, off int16, src isa.Reg, size int) *Builder {
	sz, ok := sizeBits(size)
	if !ok {
		b.errf("store: bad size %d", size)
		return b
	}
	return b.emit(isa.Instruction{Op: isa.ClassSTX | isa.ModeMEM | sz, Dst: dst, Src: src, Off: off})
}

// StoreImm emits *(size*)(dst + off) = imm.
func (b *Builder) StoreImm(dst isa.Reg, off int16, imm int32, size int) *Builder {
	sz, ok := sizeBits(size)
	if !ok {
		b.errf("storeimm: bad size %d", size)
		return b
	}
	return b.emit(isa.Instruction{Op: isa.ClassST | isa.ModeMEM | sz, Dst: dst, Off: off, Imm: imm})
}

// LoadImm64 loads a full 64-bit constant (two instruction slots).
func (b *Builder) LoadImm64(dst isa.Reg, v uint64) *Builder {
	b.emit(isa.Instruction{Op: isa.ClassLD | isa.ModeIMM | isa.SizeDW, Dst: dst, Imm: int32(uint32(v))})
	return b.emit(isa.Instruction{Imm: int32(uint32(v >> 32))})
}

// LoadMap loads a map handle into dst (LD_IMM64 with the map pseudo
// source), making dst a pointer-to-map for the verifier.
func (b *Builder) LoadMap(dst isa.Reg, mapFD int32) *Builder {
	b.emit(isa.Instruction{
		Op: isa.ClassLD | isa.ModeIMM | isa.SizeDW, Dst: dst,
		Src: isa.PseudoMapFD, Imm: mapFD,
	})
	return b.emit(isa.Instruction{})
}

// --- Control flow ---

// Ja emits an unconditional jump to label.
func (b *Builder) Ja(label string) *Builder {
	b.fixes = append(b.fixes, fixup{pos: len(b.ins), label: label})
	return b.emit(isa.Instruction{Op: isa.ClassJMP | isa.JmpJA})
}

// Jmp emits a conditional register-register jump to label.
func (b *Builder) Jmp(c Cond, dst, src isa.Reg, label string) *Builder {
	b.fixes = append(b.fixes, fixup{pos: len(b.ins), label: label})
	return b.emit(isa.Instruction{Op: isa.ClassJMP | isa.SrcX | condOps[c], Dst: dst, Src: src})
}

// JmpImm emits a conditional register-immediate jump to label.
func (b *Builder) JmpImm(c Cond, dst isa.Reg, imm int32, label string) *Builder {
	b.fixes = append(b.fixes, fixup{pos: len(b.ins), label: label})
	return b.emit(isa.Instruction{Op: isa.ClassJMP | isa.SrcK | condOps[c], Dst: dst, Imm: imm})
}

// Call emits a helper call by ID. Arguments are taken from R1-R5 and the
// result is placed in R0, clobbering R1-R5.
func (b *Builder) Call(helperID int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassJMP | isa.JmpCall, Imm: helperID})
}

// Kfunc emits a kfunc call by ID, using the kfunc pseudo source.
func (b *Builder) Kfunc(kfuncID int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassJMP | isa.JmpCall, Src: isa.PseudoKfuncCall, Imm: kfuncID})
}

// Exit emits the program exit instruction; R0 is the return value.
func (b *Builder) Exit() *Builder {
	return b.emit(isa.Instruction{Op: isa.ClassJMP | isa.JmpExit})
}

// --- Macros ---

// uniqueLabel returns a label name unlikely to collide with user labels.
func (b *Builder) uniqueLabel(prefix string) string {
	return fmt.Sprintf("__%s_%d", prefix, len(b.ins))
}

// BoundedLoop emits a counted loop running body n times with ctr as the
// induction register counting 0..n-1. The body must preserve ctr.
// The loop bound is a compile-time constant, so the verifier can unroll it.
func (b *Builder) BoundedLoop(ctr isa.Reg, n int32, body func(b *Builder)) *Builder {
	top := b.uniqueLabel("loop")
	done := b.uniqueLabel("done")
	b.MovImm(ctr, 0)
	b.Label(top)
	b.JmpImm(JSGE, ctr, n, done)
	body(b)
	b.AddImm(ctr, 1)
	b.Ja(top)
	b.Label(done)
	return b
}

// Program resolves labels and returns the finished instruction stream.
func (b *Builder) Program() ([]isa.Instruction, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	out := make([]isa.Instruction, len(b.ins))
	copy(out, b.ins)
	for _, f := range b.fixes {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", f.label)
		}
		// Offsets are relative to the instruction after the jump.
		delta := target - f.pos - 1
		if delta < -32768 || delta > 32767 {
			return nil, fmt.Errorf("jump to %q out of range (%d)", f.label, delta)
		}
		out[f.pos].Off = int16(delta)
	}
	return out, nil
}

// MustProgram is Program that panics on error; for tests and examples.
func (b *Builder) MustProgram() []isa.Instruction {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}
