package verifier_test

import (
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
)

func TestAcceptBoundsRefinedByBranch(t *testing.T) {
	// An unmasked index becomes safe after an explicit range check —
	// the JLT refinement path.
	m, fd := newVMWithMap(t) // value size 24
	b := asm.New()
	b.Load(asm.R7, asm.R1, 0, 4)
	b.JmpImm(asm.JLT, asm.R7, 16, "in_range")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("in_range")
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Add(asm.R0, asm.R7) // idx in [0,15], access [idx, idx+8) <= 23+..
	b.Load(asm.R1, asm.R0, 0, 8)
	b.MovImm(asm.R0, 0).Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("branch-refined bounds rejected: %v", err)
	}
}

func TestAcceptScalarPlusPointer(t *testing.T) {
	// The commutative form: scalar += pointer.
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.Load(asm.R7, asm.R1, 0, 4)
	b.AndImm(asm.R7, 15)
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Add(asm.R7, asm.R0) // scalar + ptr -> ptr
	b.Load(asm.R1, asm.R7, 0, 8)
	b.MovImm(asm.R0, 0).Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("scalar+pointer rejected: %v", err)
	}
}

func TestRejectPointerCompare(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Mov(asm.R2, asm.R10)
	b.Jmp(asm.JGT, asm.R2, asm.R1, "x")
	b.Label("x")
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "ordered comparison on pointer")
}

func TestRejectPointerMul(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Mov(asm.R2, asm.R10)
	b.MulImm(asm.R2, 2)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "pointer")
}

func TestRejectPointerSpill(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Store(asm.R10, -8, asm.R1, 8) // spill ctx pointer
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "spill")
}

func TestJSETBranches(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Load(asm.R1, asm.R1, 0, 4)
	b.JmpImm(asm.JSET, asm.R1, 0x80, "set")
	b.MovImm(asm.R0, 1).Exit()
	b.Label("set")
	b.MovImm(asm.R0, 2).Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("JSET rejected: %v", err)
	}
}

func TestJmp32Branches(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Load(asm.R1, asm.R1, 0, 8)
	// jeq32 r1, 7 over the two-slot fall-through.
	b.Raw(isa.Instruction{Op: isa.ClassJMP32 | isa.SrcK | isa.JmpJEQ, Dst: isa.R1, Imm: 7, Off: 2})
	b.MovImm(asm.R0, 1).Exit()
	b.MovImm(asm.R0, 2).Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("32-bit jump rejected: %v", err)
	}
}

// TestPruningMakesDataLoopsTractable: a loop whose per-iteration states
// are equal modulo reference identity must verify within the budget —
// the state-pruning mechanism the skip-list programs rely on.
func TestPruningMakesDataLoopsTractable(t *testing.T) {
	m := vm.New()
	m.RegisterKfunc(&vm.Kfunc{
		ID: 300, Name: "mem_next",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgPtrToMem, Size: 16}},
			Ret: vm.RetMem, MemSize: 16, Acquire: true, MayBeNull: true},
	})
	m.RegisterKfunc(&vm.Kfunc{
		ID: 301, Name: "mem_rel",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgPtrToMem, Size: 16}},
			Ret: vm.RetVoid, ReleaseArg: 1},
	})
	m.RegisterKfunc(&vm.Kfunc{
		ID: 302, Name: "mem_root",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{Ret: vm.RetMem, MemSize: 16, Acquire: true, MayBeNull: true},
	})

	b := asm.New()
	b.Kfunc(302)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R7, asm.R0)
	// 256 unrolled iterations, each forking on the null check: without
	// pruning this explodes; with it the states merge every round.
	for i := 0; i < 256; i++ {
		b.Mov(asm.R1, asm.R7)
		b.Kfunc(300)
		b.JmpImm(asm.JEQ, asm.R0, 0, "done")
		b.Mov(asm.R8, asm.R0)
		b.Mov(asm.R1, asm.R7)
		b.Kfunc(301)
		b.Mov(asm.R7, asm.R8)
		b.MovImm(asm.R8, 0)
	}
	b.Label("done")
	b.Mov(asm.R1, asm.R7)
	b.Kfunc(301)
	b.MovImm(asm.R0, 0)
	b.Exit()
	if err := verifyProg(t, m, b, verifier.Options{StateBudget: 200000}); err != nil {
		t.Fatalf("pruned traversal loop rejected: %v", err)
	}
}

func TestModByZeroConstRejected(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Load(asm.R0, asm.R1, 0, 4)
	b.ModImm(asm.R0, 0)
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "zero")
}

func TestKptrXchgRequiresOldHandling(t *testing.T) {
	// kptr_xchg returns an owned (possibly NULL) old value; dropping it
	// without a release or a null proof is a leak.
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Mov(asm.R1, asm.R0)
	b.MovImm(asm.R2, 0)
	b.Call(vm.HelperKptrXchg)
	b.MovImm(asm.R0, 0)
	b.Exit() // old value leaked
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "unreleased")
}

// runsOnBothContexts verifies prog, which must be accepted, and runs it
// on the two soundness contexts, returning R0 of each run.
func runsOnBothContexts(t *testing.T, prog []isa.Instruction) (r0 [2]uint64) {
	t.Helper()
	m := vm.New()
	if err := verifier.Verify(m, prog, verifier.Options{CtxSize: 64}); err != nil {
		t.Fatalf("safe program rejected: %v", err)
	}
	loaded, err := m.Load("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, ctx := range soundnessContexts(64) {
		if r0[i], err = m.Run(loaded, ctx); err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
	}
	return r0
}

// faultsAtRuntime reports how prog, loaded unverified, fails on one of
// the soundness contexts; it documents why a rejection is owed.
func faultsAtRuntime(t *testing.T, prog []isa.Instruction) error {
	t.Helper()
	m := vm.New()
	loaded, err := m.Load("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	err = faultOnEitherContext(m, loaded)
	if err == nil {
		t.Fatal("program was expected to fault on one of the contexts")
	}
	return err
}

// signedBoundHole: `jsge r7, 8` not taken says r7 < 8 as a signed value,
// which an 8-byte load of 0xff bytes (-1) satisfies while being 2^64-1
// as the unsigned offset the load then adds to the context pointer.
func signedBoundHole() []isa.Instruction {
	b := asm.New()
	b.Load(asm.R7, asm.R1, 0, 8)
	b.JmpImm(asm.JSGE, asm.R7, 8, "out")
	b.Mov(asm.R2, asm.R1)
	b.Add(asm.R2, asm.R7)
	b.Load(asm.R3, asm.R2, 0, 1)
	b.Label("out")
	b.MovImm(asm.R0, 0).Exit()
	return b.MustProgram()
}

func TestSignedBoundNeedsNonNegative(t *testing.T) {
	prog := signedBoundHole()
	fault := faultsAtRuntime(t, prog)
	err := verifier.Verify(vm.New(), prog, verifier.Options{CtxSize: 64})
	if err == nil {
		t.Fatalf("accepted a program that faults at run time: %v", fault)
	}
	wantReject(t, err, "unbounded variable offset")

	// The refinement still holds where it is true: a 4-byte load cannot
	// be negative, so the same check bounds it to [0, 7].
	b := asm.New()
	b.Load(asm.R7, asm.R1, 0, 4)
	b.JmpImm(asm.JSGE, asm.R7, 8, "out")
	b.Mov(asm.R2, asm.R1)
	b.Add(asm.R2, asm.R7)
	b.Load(asm.R3, asm.R2, 56, 1)
	b.Label("out")
	b.MovImm(asm.R0, 0).Exit()
	runsOnBothContexts(t, b.MustProgram())
}

// hugeOffsetHole: `mod r2, r8` by a known huge divisor bounds r2 below
// 2^64-3, a bound that is not the `unbounded` sentinel and once wrapped
// the access interval negative, inside the region.
func hugeOffsetHole() []isa.Instruction {
	b := asm.New()
	b.Load(asm.R2, asm.R1, 0, 8)
	b.MovImm(asm.R8, -2)
	b.Mod(asm.R2, asm.R8)
	b.Mov(asm.R3, asm.R1)
	b.Add(asm.R3, asm.R2)
	b.Load(asm.R0, asm.R3, 0, 1)
	b.Exit()
	return b.MustProgram()
}

func TestHugeVariableOffsetRejected(t *testing.T) {
	prog := hugeOffsetHole()
	fault := faultsAtRuntime(t, prog)
	err := verifier.Verify(vm.New(), prog, verifier.Options{CtxSize: 64})
	if err == nil {
		t.Fatalf("accepted a program that faults at run time: %v", fault)
	}
	wantReject(t, err, "unbounded variable offset")
}

// zeroRegisterDivisor divides a packet word by a register known to hold
// zero, which the ISA defines (x/0 = 0, x%0 = x).
func zeroRegisterDivisor(op uint8) []isa.Instruction {
	b := asm.New()
	b.MovImm(asm.R8, 0)
	b.Load(asm.R7, asm.R1, 0, 4)
	if op == isa.ALUDiv {
		b.Div(asm.R7, asm.R8)
	} else {
		b.Mod(asm.R7, asm.R8)
	}
	b.Mov(asm.R0, asm.R7).Exit()
	return b.MustProgram()
}

// TestDivModByZero: whether a division is rejected depends on the
// instruction alone. An immediate zero divisor is refused even when the
// dividend is a known constant (once folded silently); a register
// divisor is accepted even when it is known to be zero (once refused).
func TestDivModByZero(t *testing.T) {
	for _, imm := range []func(b *asm.Builder){
		func(b *asm.Builder) { b.DivImm(asm.R0, 0) },
		func(b *asm.Builder) { b.ModImm(asm.R0, 0) },
	} {
		b := asm.New()
		b.MovImm(asm.R0, 7)
		imm(b)
		b.Exit()
		wantReject(t, verifyProg(t, vm.New(), b, verifier.Options{}), "by constant zero")
	}
	if r0 := runsOnBothContexts(t, zeroRegisterDivisor(isa.ALUDiv)); r0 != [2]uint64{0, 0} {
		t.Fatalf("x / 0 = %#x, want 0", r0)
	}
	if r0 := runsOnBothContexts(t, zeroRegisterDivisor(isa.ALUMod)); r0 != [2]uint64{0x03020100, 0xffffffff} {
		t.Fatalf("x %% 0 = %#x, want x", r0)
	}
}

// TestUndefinedALUOpRejected: the ALU op codes above arsh (end and the
// two undefined ones) have no VM implementation, so the verifier must
// refuse them whatever it knows about the operands — two known
// constants used to be folded and accepted, and the program then
// faulted (the committed FuzzVerifier input abb356c4b4a92fcd).
func TestUndefinedALUOpRejected(t *testing.T) {
	for _, class := range []uint8{isa.ClassALU64, isa.ClassALU} {
		for _, op := range []uint8{isa.ALUEnd, 0xe0, 0xf0} {
			for _, src := range []uint8{isa.SrcK, isa.SrcX} {
				b := asm.New()
				b.MovImm(asm.R0, 7)
				b.Raw(isa.Instruction{Op: class | src | op, Dst: isa.R0, Src: isa.R0, Imm: 3})
				b.Exit()
				wantReject(t, verifyProg(t, vm.New(), b, verifier.Options{}), "unsupported ALU op")
			}
		}
	}
}
