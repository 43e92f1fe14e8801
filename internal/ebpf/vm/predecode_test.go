package vm_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// newPair builds two identically-configured machines — one on the
// predecoded fast path, one on the wire-format reference loop — and
// loads prog on both. setup (optional) runs on each machine before
// loading, so maps/kfuncs are registered symmetrically.
func newPair(t *testing.T, prog []isa.Instruction, setup func(m *vm.VM)) (fast, wire *vm.VM, fp, wp *vm.Program) {
	t.Helper()
	fast, wire = vm.New(), vm.New()
	fast.SetTier(vm.TierPredecoded)
	wire.SetTier(vm.TierWire)
	var err error
	for _, m := range []*vm.VM{fast, wire} {
		if setup != nil {
			setup(m)
		}
	}
	if fp, err = fast.Load("p", prog); err != nil {
		t.Fatalf("load fast: %v", err)
	}
	if wp, err = wire.Load("p", prog); err != nil {
		t.Fatalf("load wire: %v", err)
	}
	return fast, wire, fp, wp
}

// runBoth executes the program on both machines and asserts the full
// observable state agrees: verdict, error text, final registers, and
// retired-instruction count.
func runBoth(t *testing.T, fast, wire *vm.VM, fp, wp *vm.Program, ctx []byte) (uint64, error) {
	t.Helper()
	var fregs, wregs [isa.NumRegs]uint64
	fast.RegSink, wire.RegSink = &fregs, &wregs
	f0, w0 := fast.InsnCount, wire.InsnCount
	fret, ferr := fast.Run(fp, ctx)
	wret, werr := wire.Run(wp, ctx)
	if (ferr == nil) != (werr == nil) {
		t.Fatalf("error divergence: fast=%v wire=%v", ferr, werr)
	}
	if ferr != nil && ferr.Error() != werr.Error() {
		t.Fatalf("error text divergence:\n  fast: %v\n  wire: %v", ferr, werr)
	}
	if fret != wret {
		t.Fatalf("verdict divergence: fast=%d wire=%d", fret, wret)
	}
	if ferr == nil && fregs != wregs {
		t.Fatalf("register divergence:\n  fast: %x\n  wire: %x", fregs, wregs)
	}
	if fn, wn := fast.InsnCount-f0, wire.InsnCount-w0; fn != wn {
		t.Fatalf("InsnCount divergence: fast=%d wire=%d", fn, wn)
	}
	return fret, ferr
}

// TestFusionPatterns exercises each peephole pattern in isolation:
// the fuser must fire exactly as often as expected (FusedPairs), and
// the execution must match the wire loop's result exactly — at the
// full budget and at every budget cut point below it. The patterns
// that once had a dedicated fused kind and lost it (add+add, the add
// chain, ldx+and, add+jCC, add+xor, xor+mul: no catalog program
// contains them) stay as inputs, so whichever path decodes them now —
// standalone, or the generic ALU pair — is held to the same parity.
func TestFusionPatterns(t *testing.T) {
	kfID := int32(700)
	addKfunc := func(m *vm.VM) {
		m.RegisterKfunc(&vm.Kfunc{
			ID: kfID, Name: "inc",
			Impl: func(_ *vm.VM, a1, _, _, _, _ uint64) (uint64, error) { return a1 + 1, nil },
			Meta: vm.KfuncMeta{NumArgs: 1, Ret: vm.RetScalar},
		})
	}
	ctx := make([]byte, 64)
	for i := range ctx {
		ctx[i] = byte(0x81 + i*5)
	}
	cases := []struct {
		name  string
		build func(b *asm.Builder)
		setup func(m *vm.VM)
		ctx   []byte
		fused int
		want  uint64
	}{
		{
			name: "lea/mov+addimm",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R7, 100)
				b.Mov(asm.R3, asm.R7) // mov reg ...
				b.AddImm(asm.R3, -42) // ... + add imm => lea
				b.Mov(asm.R0, asm.R3)
				b.Exit()
			},
			fused: 1,
			want:  58,
		},
		{
			name: "addadd/fold",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 1)
				b.AddImm(asm.R0, 2)
				b.AddImm(asm.R0, 3) // mov+add pair generically; this add stands alone
				b.Exit()
			},
			fused: 1,
			want:  6,
		},
		{
			name: "addchain/run",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 1)
				for i := int32(1); i <= 5; i++ {
					b.AddImm(asm.R0, i) // a run of five: generic pairs, no fold
				}
				b.Exit()
			},
			fused: 3,
			want:  16,
		},
		{
			name: "ldx+and/mask",
			build: func(b *asm.Builder) {
				b.StoreImm(asm.R10, -8, 0x12345678, 4)
				b.Load(asm.R4, asm.R10, -8, 4) // the load stands alone ...
				b.AndImm(asm.R4, 0xff00)       // ... the mask pairs with the mov
				b.Mov(asm.R0, asm.R4)
				b.Exit()
			},
			fused: 1,
			want:  0x5600,
		},
		{
			name: "ldx+and/widths",
			build: func(b *asm.Builder) {
				// Every width, off the context and off a stack slot.
				b.Mov(asm.R6, asm.R1)
				b.StoreImm(asm.R10, -8, 0x12345678, 8)
				b.MovImm(asm.R0, 0)
				for _, size := range []int{1, 2, 4, 8} {
					b.Load(asm.R4, asm.R6, int16(size), size)
					b.AndImm(asm.R4, 0x7f7f7f7f)
					b.Add(asm.R0, asm.R4)
					b.Load(asm.R5, asm.R10, -8, size)
					b.AndImm(asm.R5, 0x0ff0)
					b.Add(asm.R0, asm.R5)
				}
				b.Exit()
			},
			ctx:   ctx,
			fused: 8, // each and+add
			want: func() uint64 {
				le := func(b []byte) uint64 {
					var w [8]byte
					copy(w[:], b)
					return binary.LittleEndian.Uint64(w[:])
				}
				stk := []byte{0x78, 0x56, 0x34, 0x12, 0, 0, 0, 0}
				var sum uint64
				for _, size := range []int{1, 2, 4, 8} {
					sum += le(ctx[size:2*size])&0x7f7f7f7f + le(stk[:size])&0x0ff0
				}
				return sum
			}(),
		},
		{
			name: "mov+call/helper",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R7, 0)
				b.Mov(asm.R1, asm.R7) // mov feeding ...
				b.Call(vm.HelperGetPrandomU32)
				b.Exit()
			},
			fused: 1,
			want:  uint64(vm.New().Prandom32()), // a fresh VM's first draw
		},
		{
			name: "mov+call/kfunc",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R7, 41)
				b.Mov(asm.R1, asm.R7)
				b.Kfunc(kfID) // R0 = R1 + 1
				b.Exit()
			},
			setup: addKfunc,
			fused: 1,
			want:  42,
		},
		{
			name: "add+ja/loop-tail",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 0)
				b.MovImm(asm.R6, 0) // pairs generically with the mov above
				b.Label("top")
				b.JmpImm(asm.JGE, asm.R6, 8, "done")
				b.AddImm(asm.R0, 3)
				b.AddImm(asm.R6, 1) // back-edge counter bump ...
				b.Ja("top")         // ... + jump
				b.Label("done")
				b.Exit()
			},
			fused: 2,
			want:  24,
		},
		{
			name: "alu+jmp/bounded-loop",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 0)
				b.MovImm(asm.R6, 0) // pairs generically with the mov above
				b.Label("top")
				b.AddImm(asm.R0, 3)
				b.AddImm(asm.R6, 1)                 // pairs with the add above ...
				b.JmpImm(asm.JLT, asm.R6, 8, "top") // ... the test stands alone
				b.Exit()
			},
			fused: 2,
			want:  24,
		},
		{
			name: "alu+jmp/reg-compare",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 0)
				b.MovImm(asm.R6, 0)
				b.MovImm(asm.R7, 5)
				b.Label("top")
				b.AddImm(asm.R0, 2)
				b.AddImm(asm.R6, 1)
				b.Jmp(asm.JNE, asm.R6, asm.R7, "top")
				b.Exit()
			},
			fused: 2,
			want:  10,
		},
		{
			name: "add+xor,xor+mul/hash-mix",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 7)
				b.MovImm(asm.R7, 0x9e37)
				b.AddImm(asm.R0, 3)
				b.Xor(asm.R0, asm.R7)
				b.LshImm(asm.R0, 1) // shl+add keeps its own kind
				b.Add(asm.R0, asm.R7)
				b.Xor(asm.R0, asm.R7)
				b.MulImm(asm.R0, 31)
				b.Exit()
			},
			fused: 4,
			want:  (((((7 + 3) ^ 0x9e37) << 1) + 0x9e37) ^ 0x9e37) * 31,
		},
		{
			name: "alu2/hash-mix",
			build: func(b *asm.Builder) {
				b.MovImm(asm.R0, 7)
				b.MovImm(asm.R7, 0x9e37)
				b.Xor(asm.R0, asm.R7) // generic pair: xor ...
				b.LshImm(asm.R0, 3)   // ... + shift
				b.Exit()
			},
			fused: 2,
			want:  (7 ^ 0x9e37) << 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.New()
			tc.build(b)
			prog := b.MustProgram()
			fast, wire, fp, wp := newPair(t, prog, tc.setup)
			if fp.FusedPairs() != tc.fused {
				t.Errorf("FusedPairs = %d, want %d", fp.FusedPairs(), tc.fused)
			}
			got, err := runBoth(t, fast, wire, fp, wp, tc.ctx)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got != tc.want {
				t.Errorf("verdict = %#x, want %#x", got, tc.want)
			}
			// Every cut point: a budget one short of the full retirement
			// count and everything below it must exhaust on both loops
			// with the same half-retired state.
			full := int(wire.InsnCount)
			for budget := 1; budget <= full; budget++ {
				fast, wire, fp, wp := newPair(t, prog, tc.setup)
				fast.Budget, wire.Budget = budget, budget
				_, err := runBoth(t, fast, wire, fp, wp, tc.ctx)
				if budget < full && !errors.Is(err, vm.ErrBudget) {
					t.Fatalf("budget %d of %d: err = %v, want ErrBudget", budget, full, err)
				}
			}
		})
	}
}

// TestFusionBranchTargetGuard: a pair whose second instruction is a
// branch target must not fuse — the branch lands in the middle of the
// pair and must execute only the second half.
func TestFusionBranchTargetGuard(t *testing.T) {
	b := asm.New()
	b.MovImm(asm.R0, 0)
	b.JmpImm(asm.JEQ, asm.R0, 0, "second") // always taken, into the pair
	b.Mov(asm.R3, asm.R0)                  // skipped
	b.Label("second")
	b.AddImm(asm.R0, 5) // fusion candidate second half; also branch target
	b.Exit()
	fast, wire, fp, wp := newPair(t, b.MustProgram(), nil)
	if fp.FusedPairs() != 0 {
		t.Errorf("FusedPairs = %d, want 0 (second half is a branch target)", fp.FusedPairs())
	}
	got, err := runBoth(t, fast, wire, fp, wp, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 5 {
		t.Errorf("verdict = %d, want 5", got)
	}
}

// TestFusedBudgetBoundary sweeps the instruction budget across a
// program full of fused pairs: at every boundary the fast path must
// retire exactly what the wire loop retires and fail identically,
// including the case where the first half of a fused pair itself
// faults with the last budget unit.
func TestFusedBudgetBoundary(t *testing.T) {
	b := asm.New()
	b.MovImm(asm.R0, 0)
	for i := 0; i < 6; i++ {
		b.AddImm(asm.R0, 1)
	}
	b.Exit()
	prog := b.MustProgram()
	for budget := 1; budget <= len(prog)+1; budget++ {
		fast, wire, fp, wp := newPair(t, prog, nil)
		fast.Budget, wire.Budget = budget, budget
		if fp.FusedPairs() != 3 {
			t.Fatalf("FusedPairs = %d, want 3 generic pairs over mov + six adds", fp.FusedPairs())
		}
		_, err := runBoth(t, fast, wire, fp, wp, nil)
		if budget <= len(prog)-1 && !errors.Is(err, vm.ErrBudget) {
			t.Errorf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		if budget >= len(prog) && err != nil {
			t.Errorf("budget %d: err = %v, want nil", budget, err)
		}
	}

	// A load feeding a mask faults exactly at the boundary: the wire loop
	// reports the load fault, not budget exhaustion. (The pair had a fused
	// kind once; the load now decodes standalone.)
	b = asm.New()
	b.MovImm(asm.R5, 0)
	b.Load(asm.R4, asm.R5, 0, 4) // null deref
	b.AndImm(asm.R4, 0xff)
	b.Exit()
	prog = b.MustProgram()
	for budget := 1; budget <= 3; budget++ {
		fast, wire, fp, wp := newPair(t, prog, nil)
		fast.Budget, wire.Budget = budget, budget
		_, err := runBoth(t, fast, wire, fp, wp, nil)
		switch budget {
		case 1:
			if !errors.Is(err, vm.ErrBudget) {
				t.Errorf("budget 1: err = %v, want ErrBudget", err)
			}
		default:
			if !errors.Is(err, vm.ErrNullDeref) {
				t.Errorf("budget %d: err = %v, want ErrNullDeref", budget, err)
			}
		}
	}
}

// TestLateRegistration: a program loaded before its helper/kfunc is
// registered must fail with the unknown-call error and then succeed
// once registration fills the predecoded table slot in.
func TestLateRegistration(t *testing.T) {
	t.Run("helper", func(t *testing.T) {
		m := vm.New()
		b := asm.New()
		b.Call(12345)
		b.Exit()
		prog, err := m.Load("late", b.MustProgram())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(prog, nil); !errors.Is(err, vm.ErrNoHelper) {
			t.Fatalf("pre-registration err = %v, want ErrNoHelper", err)
		}
		m.RegisterHelper(12345, func(_ *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 9, nil })
		ret, err := m.Run(prog, nil)
		if err != nil || ret != 9 {
			t.Fatalf("post-registration: ret=%d err=%v, want 9,nil", ret, err)
		}
	})
	t.Run("kfunc", func(t *testing.T) {
		m := vm.New()
		b := asm.New()
		b.Kfunc(777)
		b.Exit()
		prog, err := m.Load("late", b.MustProgram())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(prog, nil); !errors.Is(err, vm.ErrNoKfunc) {
			t.Fatalf("pre-registration err = %v, want ErrNoKfunc", err)
		}
		m.RegisterKfunc(&vm.Kfunc{
			ID: 777, Name: "nine",
			Impl: func(_ *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 9, nil },
			Meta: vm.KfuncMeta{Ret: vm.RetScalar},
		})
		ret, err := m.Run(prog, nil)
		if err != nil || ret != 9 {
			t.Fatalf("post-registration: ret=%d err=%v, want 9,nil", ret, err)
		}
	})
}

// TestRunSteadyStateAllocs asserts per-packet replay does not allocate
// once warm: the plain dispatch path, the helper/map path, and the
// obj_new/obj_drop churn path (freed regions are reused).
func TestRunSteadyStateAllocs(t *testing.T) {
	build := func(f func(b *asm.Builder)) (*vm.VM, *vm.Program) {
		m := vm.New()
		b := asm.New()
		f(b)
		prog, err := m.Load("allocs", b.MustProgram())
		if err != nil {
			t.Fatal(err)
		}
		return m, prog
	}
	ctx := make([]byte, 64)
	cases := []struct {
		name string
		m    *vm.VM
		prog *vm.Program
	}{}
	m1, p1 := build(func(b *asm.Builder) {
		b.MovImm(asm.R0, 0)
		for i := 0; i < 16; i++ {
			b.AddImm(asm.R0, 1)
		}
		b.Exit()
	})
	cases = append(cases, struct {
		name string
		m    *vm.VM
		prog *vm.Program
	}{"alu", m1, p1})

	m2, p2 := build(func(b *asm.Builder) {
		b.Call(vm.HelperGetPrandomU32)
		b.MovImm(asm.R0, 0)
		b.Exit()
	})
	cases = append(cases, struct {
		name string
		m    *vm.VM
		prog *vm.Program
	}{"helper", m2, p2})

	m3, p3 := build(func(b *asm.Builder) {
		b.MovImm(asm.R1, 32)
		b.Call(vm.HelperObjNew) // alloc ...
		b.Mov(asm.R1, asm.R0)
		b.Call(vm.HelperObjDrop) // ... free: steady state must reuse
		b.MovImm(asm.R0, 0)
		b.Exit()
	})
	cases = append(cases, struct {
		name string
		m    *vm.VM
		prog *vm.Program
	}{"objchurn", m3, p3})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up: first run may grow region/free-list capacity.
			for i := 0; i < 4; i++ {
				if _, err := tc.m.Run(tc.prog, ctx); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, err := tc.m.Run(tc.prog, ctx); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state allocs/run = %v, want 0", avg)
			}
		})
	}
}

// TestWireInterpSelectable: the slow path stays selectable per VM and
// both paths agree on a program exercising maps, helpers, and control
// flow.
func TestWireInterpSelectable(t *testing.T) {
	setup := func(m *vm.VM) { m.RegisterMap(maps.Must(maps.NewArray(8, 8))) }
	b := asm.New()
	b.StoreImm(asm.R10, -4, 3, 4)
	b.LoadMap(asm.R1, 0)
	b.Mov(asm.R2, asm.R10)
	b.AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JEQ, asm.R0, 0, "miss")
	b.StoreImm(asm.R0, 0, 0x42, 4)
	b.Load(asm.R0, asm.R0, 0, 4)
	b.Exit()
	b.Label("miss")
	b.MovImm(asm.R0, 0)
	b.Exit()
	fast, wire, fp, wp := newPair(t, b.MustProgram(), setup)
	if wire.Tier() != vm.TierWire || fast.Tier() != vm.TierPredecoded {
		t.Fatalf("tier selection not reflected: wire=%v fast=%v", wire.Tier(), fast.Tier())
	}
	got, err := runBoth(t, fast, wire, fp, wp, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0x42 {
		t.Errorf("verdict = %#x, want 0x42", got)
	}
}
