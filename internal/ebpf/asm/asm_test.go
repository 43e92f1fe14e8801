package asm

import (
	"strings"
	"testing"

	"enetstl/internal/ebpf/isa"
)

func TestLabelResolution(t *testing.T) {
	b := New()
	b.MovImm(R0, 0)
	b.JmpImm(JEQ, R0, 0, "end") // at index 1, target 3 -> off +1
	b.MovImm(R0, 1)
	b.Label("end")
	b.Exit()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if prog[1].Off != 1 {
		t.Fatalf("jump offset = %d, want 1", prog[1].Off)
	}
}

func TestBackwardJump(t *testing.T) {
	b := New()
	b.Label("top")
	b.MovImm(R0, 0)
	b.Ja("top")
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if prog[1].Off != -2 {
		t.Fatalf("backward offset = %d, want -2", prog[1].Off)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := New()
	b.Ja("nowhere")
	if _, err := b.Program(); err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := New()
	b.Label("x").MovImm(R0, 0).Label("x").Exit()
	if _, err := b.Program(); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestLoadImm64TwoSlots(t *testing.T) {
	b := New()
	b.LoadImm64(R1, 0x1122334455667788)
	prog := b.MustProgram()
	if len(prog) != 2 {
		t.Fatalf("ld_imm64 emitted %d slots", len(prog))
	}
	got := uint64(uint32(prog[0].Imm)) | uint64(uint32(prog[1].Imm))<<32
	if got != 0x1122334455667788 {
		t.Fatalf("constant = %#x", got)
	}
}

func TestLoadMapMarksPseudo(t *testing.T) {
	b := New()
	b.LoadMap(R1, 5)
	prog := b.MustProgram()
	if prog[0].Src != isa.PseudoMapFD || prog[0].Imm != 5 {
		t.Fatalf("map load encoding wrong: %+v", prog[0])
	}
}

func TestBadSizeReported(t *testing.T) {
	b := New()
	b.Load(R0, R1, 0, 3)
	if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatal("bad load size accepted")
	}
}

func TestBoundedLoopStructure(t *testing.T) {
	b := New()
	b.MovImm(R0, 0)
	b.BoundedLoop(R6, 5, func(b *Builder) { b.AddImm(R0, 1) })
	b.Exit()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	// Must contain a backward jump (the loop edge).
	hasBack := false
	for _, ins := range prog {
		if ins.Class() == isa.ClassJMP && ins.Off < 0 {
			hasBack = true
		}
	}
	if !hasBack {
		t.Fatal("bounded loop has no back edge")
	}
}

func TestJumpOutOfRange(t *testing.T) {
	b := New()
	b.Ja("far")
	for i := 0; i < 40000; i++ {
		b.MovImm(R0, 0)
	}
	b.Label("far")
	b.Exit()
	if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatal("out-of-range jump accepted")
	}
}
