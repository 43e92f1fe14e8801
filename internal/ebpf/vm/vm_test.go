package vm_test

import (
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// buildCounter returns a program that reads a 4-byte index from the
// packet, looks it up in an array map, and increments the counter there.
func buildCounter(fd int32) []isa.Instruction {
	b := asm.New()
	b.Mov(asm.R6, asm.R1)           // save ctx
	b.Load(asm.R7, asm.R6, 0, 4)    // idx from packet
	b.AndImm(asm.R7, 7)             // bound the index
	b.Store(asm.R10, -8, asm.R7, 4) // key on stack
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10)
	b.AddImm(asm.R2, -8)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.MovImm(asm.R0, 0)
	b.Exit()
	b.Label("hit")
	b.Load(asm.R1, asm.R0, 0, 8)
	b.AddImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 8)
	b.MovImm(asm.R0, 2) // XDP_PASS
	b.Exit()
	return b.MustProgram()
}

func TestRunCounterProgram(t *testing.T) {
	m := vm.New()
	arr := maps.Must(maps.NewArray(8, 8))
	fd := m.RegisterMap(arr)
	prog, err := m.Load("counter", buildCounter(fd))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	pkt := make([]byte, 64)
	pkt[0] = 3
	for i := 0; i < 10; i++ {
		ret, err := m.Run(prog, pkt)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if ret != vm.XDPPass {
			t.Fatalf("run %d: ret = %d, want XDP_PASS", i, ret)
		}
	}
	got := arr.Lookup([]byte{3, 0, 0, 0})
	var count uint64
	for i := 7; i >= 0; i-- {
		count = count<<8 | uint64(got[i])
	}
	if count != 10 {
		t.Fatalf("counter = %d, want 10", count)
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *asm.Builder)
		want  uint64
	}{
		{"add", func(b *asm.Builder) { b.MovImm(asm.R0, 40).AddImm(asm.R0, 2) }, 42},
		{"sub", func(b *asm.Builder) { b.MovImm(asm.R0, 40).SubImm(asm.R0, 2) }, 38},
		{"mul", func(b *asm.Builder) { b.MovImm(asm.R0, 6).MulImm(asm.R0, 7) }, 42},
		{"div", func(b *asm.Builder) { b.MovImm(asm.R0, 84).DivImm(asm.R0, 2) }, 42},
		{"div_by_zero_reg", func(b *asm.Builder) {
			b.MovImm(asm.R0, 84).Load(asm.R1, asm.R10, -8, 8)
			b.StoreImm(asm.R10, -8, 0, 8).Load(asm.R1, asm.R10, -8, 8).Div(asm.R0, asm.R1)
		}, 0},
		{"mod", func(b *asm.Builder) { b.MovImm(asm.R0, 45).ModImm(asm.R0, 43) }, 2},
		{"neg", func(b *asm.Builder) { b.MovImm(asm.R0, 1).Neg(asm.R0) }, ^uint64(0)},
		{"xor", func(b *asm.Builder) { b.MovImm(asm.R0, 0xff).XorImm(asm.R0, 0x0f) }, 0xf0},
		{"lsh", func(b *asm.Builder) { b.MovImm(asm.R0, 1).LshImm(asm.R0, 33) }, 1 << 33},
		{"rsh", func(b *asm.Builder) { b.MovImm(asm.R0, 1).LshImm(asm.R0, 33).RshImm(asm.R0, 30) }, 8},
		{"arsh", func(b *asm.Builder) {
			b.MovImm(asm.R0, -16).Raw(isa.Instruction{Op: isa.ClassALU64 | isa.SrcK | isa.ALUArsh, Dst: isa.R0, Imm: 2})
		}, ^uint64(0) - 3},
		{"mov32_zero_extends", func(b *asm.Builder) {
			b.MovImm(asm.R0, -1).Mov32Imm(asm.R0, -1)
		}, 0xffffffff},
		{"alu32_wraps", func(b *asm.Builder) {
			b.Mov32Imm(asm.R0, -1).Raw(isa.Instruction{Op: isa.ClassALU | isa.SrcK | isa.ALUAdd, Dst: isa.R0, Imm: 1})
		}, 0},
		{"sign_extend_imm", func(b *asm.Builder) { b.MovImm(asm.R0, -1) }, ^uint64(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := vm.New()
			b := asm.New()
			// Some cases use a stack scratch slot; initialize it.
			b.StoreImm(asm.R10, -8, 7, 8)
			tc.build(b)
			b.Exit()
			prog, err := m.Load(tc.name, b.MustProgram())
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			got, err := m.Run(prog, make([]byte, 64))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got != tc.want {
				t.Fatalf("got %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestMemoryFaults(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *asm.Builder)
	}{
		{"null_deref", func(b *asm.Builder) {
			b.MovImm(asm.R1, 0).Load(asm.R0, asm.R1, 0, 8).Exit()
		}},
		{"stack_overflow", func(b *asm.Builder) {
			b.Load(asm.R0, asm.R10, 8, 8).Exit()
		}},
		{"stack_underflow", func(b *asm.Builder) {
			b.Load(asm.R0, asm.R10, -520, 8).Exit()
		}},
		{"ctx_oob", func(b *asm.Builder) {
			b.Load(asm.R0, asm.R1, 100, 8).Exit()
		}},
		{"scalar_deref", func(b *asm.Builder) {
			b.MovImm(asm.R3, 12345).Load(asm.R0, asm.R3, 0, 8).Exit()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := vm.New()
			b := asm.New()
			tc.build(b)
			prog, err := m.Load(tc.name, b.MustProgram())
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if _, err := m.Run(prog, make([]byte, 64)); err == nil {
				t.Fatal("expected runtime fault, got success")
			}
		})
	}
}

func TestInstructionBudget(t *testing.T) {
	m := vm.New()
	b := asm.New()
	b.Label("spin").Ja("spin")
	prog, err := m.Load("spin", b.MustProgram())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(prog, nil); err != vm.ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestSpinLockAndList(t *testing.T) {
	m := vm.New()
	// One array element: [lock u32, pad u32, head first u64, head last u64].
	arr := maps.Must(maps.NewArray(24, 1))
	fd := m.RegisterMap(arr)

	const nodeSize = 8
	b := asm.New()
	// r6 = &value
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R6, asm.R0)
	// node = obj_new(8); node.data = 0xAB
	b.MovImm(asm.R1, nodeSize)
	b.Call(vm.HelperObjNew)
	b.JmpImm(asm.JNE, asm.R0, 0, "alloc_ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("alloc_ok")
	b.Mov(asm.R7, asm.R0)
	b.StoreImm(asm.R7, vm.NodeHeaderSize, 0xAB, 1)
	// lock; push_front(head=&value+8, node); pop_back; unlock
	b.Mov(asm.R1, asm.R6)
	b.Call(vm.HelperSpinLock)
	b.Mov(asm.R1, asm.R6).AddImm(asm.R1, 8)
	b.Mov(asm.R2, asm.R7)
	b.Call(vm.HelperListPushFront)
	b.Mov(asm.R1, asm.R6).AddImm(asm.R1, 8)
	b.Call(vm.HelperListPopBack)
	b.Mov(asm.R8, asm.R0)
	b.Mov(asm.R1, asm.R6)
	b.Call(vm.HelperSpinUnlock)
	b.JmpImm(asm.JNE, asm.R8, 0, "got")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("got")
	b.Load(asm.R0, asm.R8, vm.NodeHeaderSize, 1) // should be 0xAB
	b.Mov(asm.R9, asm.R0)
	b.Mov(asm.R1, asm.R8)
	b.Call(vm.HelperObjDrop)
	b.Mov(asm.R0, asm.R9)
	b.Exit()

	prog, err := m.Load("list", b.MustProgram())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got, err := m.Run(prog, make([]byte, 64))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0xAB {
		t.Fatalf("popped payload = %#x, want 0xAB", got)
	}
}

func TestListWithoutLockFails(t *testing.T) {
	m := vm.New()
	arr := maps.Must(maps.NewArray(24, 1))
	fd := m.RegisterMap(arr)
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R1, asm.R0).AddImm(asm.R1, 8)
	b.Call(vm.HelperListPopFront)
	b.MovImm(asm.R0, 0)
	b.Exit()
	prog, err := m.Load("nolock", b.MustProgram())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(prog, make([]byte, 64)); err == nil {
		t.Fatal("list pop without lock should fault at runtime")
	}
}

func TestKfuncDispatchAndHandles(t *testing.T) {
	m := vm.New()
	type obj struct{ n int }
	m.RegisterKfunc(&vm.Kfunc{
		ID: 100, Name: "obj_make",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) {
			return machine.AllocHandle(&obj{n: 7}), nil
		},
		Meta: vm.KfuncMeta{Ret: vm.RetHandle, Acquire: true, MayBeNull: true},
	})
	m.RegisterKfunc(&vm.Kfunc{
		ID: 101, Name: "obj_get",
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			o, err := machine.Object(a1)
			if err != nil {
				return 0, err
			}
			return uint64(o.(*obj).n), nil
		},
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgHandle}}, Ret: vm.RetScalar},
	})
	m.RegisterKfunc(&vm.Kfunc{
		ID: 102, Name: "obj_put",
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			return 0, machine.FreeHandle(a1)
		},
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgHandle}}, Ret: vm.RetVoid, ReleaseArg: 1},
	})

	b := asm.New()
	b.Kfunc(100)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("ok")
	b.Mov(asm.R6, asm.R0)
	b.Mov(asm.R1, asm.R6)
	b.Kfunc(101)
	b.Mov(asm.R7, asm.R0)
	b.Mov(asm.R1, asm.R6)
	b.Kfunc(102)
	b.Mov(asm.R0, asm.R7)
	b.Exit()
	prog, err := m.Load("kfunc", b.MustProgram())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got, err := m.Run(prog, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

// TestPerCPUMapIsolation: two VMs, one per CPU, each attach their own
// copy of one per-CPU array, as the sharded NFs do; a run on one CPU
// counts in that copy only.
func TestPerCPUMapIsolation(t *testing.T) {
	pc := maps.Must(maps.NewPerCPUArray(8, 4, 2))
	pkt := make([]byte, 64)
	pkt[0] = 1
	for cpu, runs := range []int{2, 1} {
		m := vm.New()
		prog, err := m.Load("counter", buildCounter(m.RegisterMap(pc.CPU(cpu))))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		for i := 0; i < runs; i++ {
			if _, err := m.Run(prog, pkt); err != nil {
				t.Fatalf("cpu%d run: %v", cpu, err)
			}
		}
	}
	if pc.CPUData(0)[8] != 2 || pc.CPUData(1)[8] != 1 {
		t.Fatalf("per-cpu counters not isolated: cpu0=%d cpu1=%d, want 2 and 1", pc.CPUData(0)[8], pc.CPUData(1)[8])
	}
}

func TestLockImbalanceAtExit(t *testing.T) {
	m := vm.New()
	arr := maps.Must(maps.NewArray(24, 1))
	fd := m.RegisterMap(arr)
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
	prog, err := m.Load("imbalance", b.MustProgram())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(prog, nil); err == nil {
		t.Fatal("exit with held lock should fault")
	}
}
