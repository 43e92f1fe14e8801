package verifier_test

import (
	"strings"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
)

func newVMWithMap(t *testing.T) (*vm.VM, int32) {
	t.Helper()
	m := vm.New()
	fd := m.RegisterMap(maps.Must(maps.NewArray(24, 8)))
	return m, fd
}

func verifyProg(t *testing.T, m *vm.VM, b *asm.Builder, opts verifier.Options) error {
	t.Helper()
	prog, err := b.Program()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return verifier.Verify(m, prog, opts)
}

func wantReject(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatal("verifier accepted an unsafe program")
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("rejection reason %q does not mention %q", err, fragment)
	}
}

func TestAcceptMinimal(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R0, 2).Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("minimal program rejected: %v", err)
	}
}

func TestRejectNoExitR0(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "R0 not set")
}

func TestRejectUninitReg(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Mov(asm.R0, asm.R5).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "uninitialized register")
}

func TestRejectMissingNullCheck(t *testing.T) {
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.Load(asm.R0, asm.R0, 0, 8) // deref without null check
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "NULL")
}

func TestAcceptLookupWithNullCheck(t *testing.T) {
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Load(asm.R1, asm.R0, 0, 8)
	b.AddImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 8)
	b.MovImm(asm.R0, 2).Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("valid lookup program rejected: %v", err)
	}
}

func TestRejectUninitStackKey(t *testing.T) {
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4) // key never written
	b.Call(vm.HelperMapLookup)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "uninitialized stack")
}

func TestRejectMapValueOOB(t *testing.T) {
	m, fd := newVMWithMap(t) // value size 24
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Load(asm.R1, asm.R0, 20, 8) // bytes [20,28) outside 24-byte value
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "out-of-bounds")
}

func TestRejectStackOOB(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.StoreImm(asm.R10, -520, 1, 8)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "out-of-bounds")
}

func TestRejectCtxOOB(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Load(asm.R0, asm.R1, 60, 8)
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{CtxSize: 64}), "out-of-bounds")
}

func TestAcceptMaskedVariableIndex(t *testing.T) {
	m, fd := newVMWithMap(t) // value 24 bytes
	b := asm.New()
	b.Load(asm.R7, asm.R1, 0, 4)
	b.AndImm(asm.R7, 15) // bounded [0,15]
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Add(asm.R0, asm.R7)
	b.Load(asm.R1, asm.R0, 0, 8) // [idx, idx+8) with idx<=15: within 24? 15+8=23 <= 24 ok
	b.Mov(asm.R0, asm.R1)
	b.Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("masked index program rejected: %v", err)
	}
}

func TestRejectUnmaskedVariableIndex(t *testing.T) {
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.Load(asm.R7, asm.R1, 0, 4) // unbounded within u32: up to 2^32-1
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Add(asm.R0, asm.R7)
	b.Load(asm.R1, asm.R0, 0, 8)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "out-of-bounds")
}

func TestRejectUnboundedLoop(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R6, 0)
	b.Label("loop")
	b.Load(asm.R7, asm.R1, 0, 4)
	b.AddImm(asm.R6, 1)
	b.JmpImm(asm.JNE, asm.R7, 0, "loop") // trip count depends on packet
	b.MovImm(asm.R0, 0).Exit()
	// R6 counts but nothing ever reads it, so the second arrival at the
	// branch is the first one again: rejected on the spot, not after
	// 10 000 steps of telling the iterations apart by a dead counter.
	wantReject(t, verifyProg(t, m, b, verifier.Options{StateBudget: 10000}), "no progress")
}

// TestRejectLoopWithoutProgress: with no counter at all the repeated
// state used to be pruned as already explored, and the loop accepted.
func TestRejectLoopWithoutProgress(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Label("loop")
	b.Load(asm.R7, asm.R1, 0, 4)
	b.JmpImm(asm.JNE, asm.R7, 0, "loop")
	b.MovImm(asm.R0, 0).Exit()
	err := verifyProg(t, m, b, verifier.Options{})
	wantReject(t, err, "loop makes no progress")
	wantReject(t, err, "at jump 1") // the diagnosis names the loop's branch
}

// TestBudgetRejectionReportsEffort: a counted loop too long for its
// budget is diagnosable from the error text alone.
func TestBudgetRejectionReportsEffort(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R0, 0)
	b.BoundedLoop(asm.R6, 1000, func(b *asm.Builder) { b.AddImm(asm.R0, 2) })
	b.Exit()
	err := verifyProg(t, m, b, verifier.Options{StateBudget: 500})
	wantReject(t, err, "budget exhausted")
	wantReject(t, err, "501 steps, ")
	wantReject(t, err, " distinct states, ")
	wantReject(t, err, "at jump 2") // jsge: one state per trip, as is ja
}

func TestAcceptBoundedLoop(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R0, 0)
	b.BoundedLoop(asm.R6, 32, func(b *asm.Builder) {
		b.AddImm(asm.R0, 2)
	})
	b.Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("bounded loop rejected: %v", err)
	}
}

func TestRejectWriteToR10(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R10, 0)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "frame pointer")
}

func TestRejectDivByConstZero(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Load(asm.R0, asm.R1, 0, 4)
	b.DivImm(asm.R0, 0)
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "zero")
}

func TestRejectJumpIntoLdImm64(t *testing.T) {
	m := vm.New()
	prog := []isa.Instruction{
		{Op: isa.ClassJMP | isa.JmpJA, Off: 1}, // jump into hi slot
		{Op: isa.ClassLD | isa.SizeDW, Imm: 1},
		{Imm: 0},
		{Op: isa.ClassALU64 | isa.ALUMov, Dst: isa.R0},
		{Op: isa.ClassJMP | isa.JmpExit},
	}
	err := verifier.Verify(m, prog, verifier.Options{})
	wantReject(t, err, "ld_imm64")
}

func TestRejectLeakedReference(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R1, 8)
	b.Call(vm.HelperObjNew)
	b.MovImm(asm.R0, 0)
	b.Exit() // node leaked
	wantReject(t, verifyProg(t, m, b, verifier.Options{ListNodeSize: 8}), "unreleased reference")
}

func TestAcceptAllocDropPair(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R1, 8)
	b.Call(vm.HelperObjNew)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit() // NULL path: nothing to release
	b.Label("ok")
	b.Mov(asm.R1, asm.R0)
	b.Call(vm.HelperObjDrop)
	b.MovImm(asm.R0, 0).Exit()
	if err := verifyProg(t, m, b, verifier.Options{ListNodeSize: 8}); err != nil {
		t.Fatalf("alloc/drop pair rejected: %v", err)
	}
}

func TestRejectListPushWithoutLock(t *testing.T) {
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R6, asm.R0)
	b.MovImm(asm.R1, 8)
	b.Call(vm.HelperObjNew)
	b.JmpImm(asm.JNE, asm.R0, 0, "alloc")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("alloc")
	b.Mov(asm.R1, asm.R6).AddImm(asm.R1, 8)
	b.Mov(asm.R2, asm.R0)
	b.Call(vm.HelperListPushFront)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{ListNodeSize: 8}), "lock")
}

func TestRejectExitWithLockHeld(t *testing.T) {
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R1, asm.R0)
	b.Call(vm.HelperSpinLock)
	b.MovImm(asm.R0, 0)
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "lock held")
}

func TestRejectDoubleDrop(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.MovImm(asm.R1, 8)
	b.Call(vm.HelperObjNew)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R6, asm.R0)
	b.Mov(asm.R1, asm.R6)
	b.Call(vm.HelperObjDrop)
	b.Mov(asm.R1, asm.R6) // stale: reference already released, register invalidated
	b.Call(vm.HelperObjDrop)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{ListNodeSize: 8}), "uninitialized")
}

func TestKfuncMetadataEnforced(t *testing.T) {
	m := vm.New()
	m.RegisterKfunc(&vm.Kfunc{
		ID: 200, Name: "ret_null_mem",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{Ret: vm.RetMem, MemSize: 16, MayBeNull: true},
	})
	// Using the returned pointer without a null check must be rejected.
	b := asm.New()
	b.Kfunc(200)
	b.Load(asm.R0, asm.R0, 0, 8)
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "NULL")

	// With the check it verifies, and OOB past MemSize is rejected.
	b = asm.New()
	b.Kfunc(200)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Load(asm.R0, asm.R0, 8, 8)
	b.Exit()
	if err := verifyProg(t, m, b, verifier.Options{}); err != nil {
		t.Fatalf("null-checked kfunc mem rejected: %v", err)
	}

	b = asm.New()
	b.Kfunc(200)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Load(asm.R0, asm.R0, 12, 8) // [12,20) > 16
	b.Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "out-of-bounds")
}

func TestKfuncHandleArgRequiresNullCheck(t *testing.T) {
	m, fd := newVMWithMap(t)
	m.RegisterKfunc(&vm.Kfunc{
		ID: 201, Name: "use_handle",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgHandle}}, Ret: vm.RetScalar},
	})
	build := func(withCheck bool) *asm.Builder {
		b := asm.New()
		b.StoreImm(asm.R10, -4, 0, 4)
		b.LoadMap(asm.R1, fd)
		b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
		b.Call(vm.HelperMapLookup)
		b.JmpImm(asm.JNE, asm.R0, 0, "hit")
		b.MovImm(asm.R0, 0).Exit()
		b.Label("hit")
		b.Load(asm.R6, asm.R0, 0, 8) // handle candidate from map value
		if withCheck {
			b.JmpImm(asm.JNE, asm.R6, 0, "use")
			b.MovImm(asm.R0, 0).Exit()
			b.Label("use")
		}
		b.Mov(asm.R1, asm.R6)
		b.Kfunc(201)
		b.MovImm(asm.R0, 0).Exit()
		return b
	}
	wantReject(t, verifyProg(t, m, build(false), verifier.Options{}), "handle")
	if err := verifyProg(t, m, build(true), verifier.Options{}); err != nil {
		t.Fatalf("null-checked handle rejected: %v", err)
	}
}

func TestRejectUntrustedScalarAsHandle(t *testing.T) {
	m := vm.New()
	m.RegisterKfunc(&vm.Kfunc{
		ID: 202, Name: "use_handle",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgHandle}}, Ret: vm.RetScalar},
	})
	b := asm.New()
	b.Load(asm.R6, asm.R1, 0, 8) // scalar from packet: untrusted
	b.JmpImm(asm.JNE, asm.R6, 0, "use")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("use")
	b.Mov(asm.R1, asm.R6)
	b.Kfunc(202)
	b.MovImm(asm.R0, 0).Exit()
	wantReject(t, verifyProg(t, m, b, verifier.Options{}), "untrusted")
}

func TestVerifiedProgramsAlsoRun(t *testing.T) {
	// End-to-end: everything the verifier accepts in this file must also
	// execute without runtime faults.
	m, fd := newVMWithMap(t)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("hit")
	b.Load(asm.R1, asm.R0, 0, 8)
	b.AddImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 8)
	b.MovImm(asm.R0, 2).Exit()
	prog, err := verifier.LoadAndVerify(m, "e2e", b.MustProgram(), verifier.Options{})
	if err != nil {
		t.Fatalf("LoadAndVerify: %v", err)
	}
	if _, err := m.Run(prog, make([]byte, 64)); err != nil {
		t.Fatalf("run: %v", err)
	}
}
