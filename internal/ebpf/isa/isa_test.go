package isa

import (
	"strings"
	"testing"
)

func TestInstructionPredicates(t *testing.T) {
	exit := Instruction{Op: ClassJMP | JmpExit}
	if !exit.IsExit() || exit.IsCall() {
		t.Fatal("exit predicates wrong")
	}
	call := Instruction{Op: ClassJMP | JmpCall, Imm: 1}
	kfunc := Instruction{Op: ClassJMP | JmpCall, Src: PseudoKfuncCall, Imm: 2001}
	if !call.IsCall() || !kfunc.IsCall() {
		t.Fatal("call predicates wrong")
	}
	ld := Instruction{Op: ClassLD | ModeIMM | SizeDW}
	if !ld.IsLoadImm64() {
		t.Fatal("ld_imm64 predicate wrong")
	}
}

func TestSizeBytes(t *testing.T) {
	cases := map[uint8]int{SizeB: 1, SizeH: 2, SizeW: 4, SizeDW: 8}
	for sz, want := range cases {
		if got := SizeBytes(sz); got != want {
			t.Fatalf("SizeBytes(%#x) = %d, want %d", sz, got, want)
		}
	}
	if SizeBytes(0x20) != 0 {
		t.Fatal("bad size field not rejected")
	}
}

func TestClassAndOpExtraction(t *testing.T) {
	add := Instruction{Op: ClassALU64 | SrcX | ALUAdd, Dst: R1, Src: R2}
	if add.Class() != ClassALU64 || add.ALUOp() != ALUAdd || !add.SrcIsReg() {
		t.Fatal("field extraction wrong")
	}
	jeq := Instruction{Op: ClassJMP | SrcK | JmpJEQ, Dst: R0, Imm: 5, Off: 3}
	if jeq.JmpOp() != JmpJEQ || jeq.SrcIsReg() {
		t.Fatal("jump field extraction wrong")
	}
}

func TestRegValidity(t *testing.T) {
	if !R10.Valid() || Reg(11).Valid() {
		t.Fatal("register validity wrong")
	}
	if R3.String() != "r3" {
		t.Fatalf("R3.String() = %q", R3.String())
	}
}

func TestDisassemblyMentionsOperands(t *testing.T) {
	prog := []Instruction{
		{Op: ClassALU64 | SrcK | ALUMov, Dst: R0, Imm: 42},
		{Op: ClassLDX | ModeMEM | SizeW, Dst: R1, Src: R2, Off: -8},
		{Op: ClassSTX | ModeMEM | SizeDW, Dst: R10, Src: R3, Off: -16},
		{Op: ClassJMP | SrcK | JmpJEQ, Dst: R0, Imm: 0, Off: 1},
		{Op: ClassJMP | JmpCall, Imm: 1},
		{Op: ClassLD | ModeIMM | SizeDW, Dst: R4, Src: PseudoMapFD, Imm: 7},
		{},
		{Op: ClassJMP | JmpExit},
	}
	out := Disassemble(prog)
	for _, want := range []string{"mov r0, 42", "ldxw r1, [r2-8]", "stxdw [r10-16], r3",
		"jeq r0, 0, +1", "call helper#1", "ldmapfd r4, map#7", "exit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, out)
		}
	}
}
