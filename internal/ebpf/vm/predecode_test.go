package vm_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
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
// contains them; add+ja, lsh+add, mov+rsh: the idiom runs absorbed
// them) stay as inputs, so whichever path decodes them now —
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
				b.AddImm(asm.R0, 3) // pairs generically with the counter bump;
				b.AddImm(asm.R6, 1) // the back-edge run needs a jsge at top
				b.Ja("top")
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
				b.LshImm(asm.R0, 1) // shl+add pairs generically
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

// idiomRun is a program around one idiom run (kRunXorshift and the
// kinds after it), or around a near miss of one: pre, the run's wire
// instructions one emitter each (so a label can land between any two),
// then post, which ends in exit.
type idiomRun struct {
	name string
	kind string // the run kind the fuser forms exactly once; "": none may form
	pre  func(b *asm.Builder)
	run  []func(b *asm.Builder)
	post func(b *asm.Builder)
	// The fault the program raises at the full budget (nil: it exits),
	// at the run's wire instruction faultAt.
	fault   error
	faultAt int
	setup   func(m *vm.VM)
}

// program builds r; a non-negative land puts a branch at the very start
// to the run's land-th wire instruction.
func (r idiomRun) program(land int) []isa.Instruction {
	b := asm.New()
	if land >= 0 {
		b.Ja("land")
	}
	r.pre(b)
	for i, emit := range r.run {
		if i == land {
			b.Label("land")
		}
		emit(b)
	}
	r.post(b)
	return b.MustProgram()
}

// pc is the pc of r's n-th run instruction in program(-1). (Labels
// must resolve, so it counts with post and takes post's length away.)
func (r idiomRun) pc(n int) int {
	b, post := asm.New(), asm.New()
	r.pre(b)
	for _, emit := range r.run[:n] {
		emit(b)
	}
	r.post(b)
	r.post(post)
	return len(b.MustProgram()) - len(post.MustProgram())
}

func idiomRuns() []idiomRun {
	const (
		r0, r1, r5, r6, r7, r8, r9, r10 = asm.R0, asm.R1, asm.R5, asm.R6, asm.R7, asm.R8, asm.R9, asm.R10
	)
	exitWith := func(reg isa.Reg) func(b *asm.Builder) {
		return func(b *asm.Builder) { b.Mov(r0, reg).Exit() }
	}
	// The hash mix: x = r7, t = r8, the multiplier r9.
	mixPre := func(b *asm.Builder) { b.MovImm(r7, -0x6543_2101).MovImm(r9, 0x1f3d5b79) }
	xorshift := func(t, x isa.Reg, mul ...isa.Reg) []func(b *asm.Builder) {
		run := []func(b *asm.Builder){
			func(b *asm.Builder) { b.Mov(t, x) },
			func(b *asm.Builder) { b.RshImm(t, 23) },
			func(b *asm.Builder) { b.Xor(x, t) },
		}
		for _, c := range mul {
			run = append(run, func(b *asm.Builder) { b.Mul(x, c) })
		}
		return run
	}
	// The counter bump on [r6+off]: d = r1 unless the row says otherwise.
	bump := func(d isa.Reg, off int16, size int) []func(b *asm.Builder) {
		return []func(b *asm.Builder){
			func(b *asm.Builder) { b.Load(d, r6, off, size) },
			func(b *asm.Builder) { b.AddImm(d, 0x20) },
			func(b *asm.Builder) { b.Store(r6, off, d, size) },
		}
	}
	onStack := func(b *asm.Builder) {
		b.StoreImm(r10, -8, -16, 8) // 0xffff...fff0: the 4-byte bump wraps
		b.Mov(r6, r10)
	}
	// The indexed load: mov a,i, the address steps on a, then d = [a+0]:
	// i = r5, a = r0, d = r1 unless the row says otherwise.
	addr := func(d isa.Reg, size int, steps ...func(b *asm.Builder)) []func(b *asm.Builder) {
		run := append([]func(b *asm.Builder){func(b *asm.Builder) { b.Mov(r0, r5) }}, steps...)
		return append(run, func(b *asm.Builder) { b.Load(d, r0, 0, size) })
	}
	rsh := func(k int32) func(b *asm.Builder) { return func(b *asm.Builder) { b.RshImm(r0, k) } }
	and := func(k int32) func(b *asm.Builder) { return func(b *asm.Builder) { b.AndImm(r0, k) } }
	lsh := func(k int32) func(b *asm.Builder) { return func(b *asm.Builder) { b.LshImm(r0, k) } }
	add := func(reg isa.Reg) func(b *asm.Builder) { return func(b *asm.Builder) { b.Add(r0, reg) } }
	addK := func(k int32) func(b *asm.Builder) { return func(b *asm.Builder) { b.AddImm(r0, k) } }
	// spacesaving's masked load a = (i & 7) << shift + b.
	index := func(base isa.Reg, shift int32, size int) []func(b *asm.Builder) {
		return addr(r1, size, and(7), lsh(shift), add(base))
	}
	table := func(index int32) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			for k := int16(0); k < 8; k++ {
				b.StoreImm(r10, -64+8*k, 0x1000*int32(k)+int32(k), 8)
			}
			b.Mov(r7, r10).AddImm(r7, -64)
			b.MovImm(r5, index)
		}
	}
	loop := func(from, bound int32) idiomRun {
		return idiomRun{
			name: fmt.Sprintf("loop/%d..%d", from, bound), kind: "kRunLoop",
			pre: func(b *asm.Builder) {
				b.MovImm(r0, 0).MovImm(r5, from)
				b.Label("top")
				b.JmpImm(asm.JSGE, r5, bound, "done")
				b.AddImm(r0, 3)
			},
			run: []func(b *asm.Builder){
				func(b *asm.Builder) { b.AddImm(r5, 1) },
				func(b *asm.Builder) { b.Ja("top") },
			},
			post: func(b *asm.Builder) { b.Label("done").Exit() },
		}
	}
	ro := vm.New().ReadOnlyMem(make([]byte, 16)) // the pointer the first region a VM maps gets
	return []idiomRun{
		{name: "xorshift", kind: "kRunXorshift", pre: mixPre, run: xorshift(r8, r7), post: exitWith(r7)},
		{name: "xorshift-mul", kind: "kRunXorshift", pre: mixPre, run: xorshift(r8, r7, r9), post: exitWith(r7)},
		{name: "xorshift-mul/c=t", kind: "kRunXorshift", pre: mixPre, run: xorshift(r8, r7, r8), post: exitWith(r7)},
		{name: "xorshift-mul/c=x", kind: "kRunXorshift", pre: mixPre, run: xorshift(r8, r7, r7), post: exitWith(r7)},
		{name: "xorshift/t=x", pre: mixPre, run: xorshift(r7, r7, r9), post: exitWith(r7)},
		{
			name: "constpair", kind: "kRunConstPair", pre: func(b *asm.Builder) {},
			run: []func(b *asm.Builder){
				func(b *asm.Builder) { b.LoadImm64(r7, 0x880355f21e6d1965) },
				func(b *asm.Builder) { b.LoadImm64(r8, 0x2127599bf4325c37) },
			},
			post: func(b *asm.Builder) { b.Mov(r0, r7).Xor(r0, r8).Exit() },
		},
		{name: "bump/w", kind: "kRunBump", pre: onStack, run: bump(r1, -8, 4),
			post: func(b *asm.Builder) { b.Load(r0, r6, -8, 8).Add(r0, r1).Exit() }},
		{name: "bump/dw", kind: "kRunBump", pre: onStack, run: bump(r1, -8, 8),
			post: func(b *asm.Builder) { b.Load(r0, r6, -8, 8).Add(r0, r1).Exit() }},
		{name: "bump/b", kind: "kRunBump", pre: onStack, run: bump(r1, -7, 1),
			post: func(b *asm.Builder) { b.Load(r0, r6, -8, 8).Add(r0, r1).Exit() }},
		{
			// d == b: the store goes through the bumped value, so no run.
			name: "bump/d=b",
			pre: func(b *asm.Builder) {
				b.Mov(r6, r10).AddImm(r6, -16)
				b.Mov(r7, r10).AddImm(r7, -8-0x20)
				b.Store(r6, 0, r7, 8)
			},
			run:  bump(r6, 0, 8),
			post: func(b *asm.Builder) { b.Load(r0, r6, 0, 8).Sub(r0, r10).Exit() },
		},
		{name: "bump/null", kind: "kRunBump", pre: func(b *asm.Builder) { b.MovImm(r6, 0) },
			run: bump(r1, 0, 4), post: exitWith(r1), fault: vm.ErrNullDeref, faultAt: 0},
		{
			name: "bump/read-only", kind: "kRunBump", setup: func(m *vm.VM) { m.ReadOnlyMem(make([]byte, 16)) },
			pre: func(b *asm.Builder) { b.LoadImm64(r6, ro) }, run: bump(r1, 8, 4), post: exitWith(r1),
			fault: vm.ErrReadOnly, faultAt: 2,
		},
		{name: "index/w", kind: "kRunIndexLoad", pre: table(13), run: index(r7, 3, 4), post: exitWith(r1)},
		{name: "index/dw", kind: "kRunIndexLoad", pre: table(-3), run: index(r7, 3, 8), post: exitWith(r1)},
		{name: "index/a=b", pre: table(2), run: index(r0, 3, 8), post: exitWith(r1),
			fault: vm.ErrBadPointer, faultAt: 4},
		{name: "index/edf", kind: "kRunIndexLoad", pre: table(0x35), post: exitWith(r0),
			run: addr(r0, 4, rsh(4), and(7), lsh(3), add(r7))},
		{name: "index/eiffel", kind: "kRunIndexLoad", pre: table(3), post: exitWith(r1),
			run: addr(r1, 8, lsh(3), add(r7), addK(8))},
		{name: "index/bloom", kind: "kRunIndexLoad", pre: table(37), post: exitWith(r1),
			run: addr(r1, 1, rsh(3), add(r7))},
		{name: "index/out-of-order", pre: table(3), post: exitWith(r1),
			run: addr(r1, 8, lsh(3), and(56), add(r7))},
		{name: "index/null", kind: "kRunIndexLoad", pre: func(b *asm.Builder) { b.MovImm(r7, 0).MovImm(r5, 8) },
			run: index(r7, 3, 8), post: exitWith(r1), fault: vm.ErrNullDeref, faultAt: 4},
		{name: "index/oob", kind: "kRunIndexLoad", pre: func(b *asm.Builder) { b.Mov(r7, r10).AddImm(r7, -8).MovImm(r5, 7) },
			run: index(r7, 2, 4), post: exitWith(r1), fault: vm.ErrOOB, faultAt: 4},
		loop(0, 4),
		loop(-5, -1),
	}
}

// runBothStats is runBoth plus, when both machines carry stats, the
// per-program instruction and class counts.
func runBothStats(t *testing.T, fast, wire *vm.VM, fp, wp *vm.Program) error {
	t.Helper()
	_, err := runBoth(t, fast, wire, fp, wp, nil)
	if fast.Stats() != nil {
		fs, _ := fast.Stats().ProgSnapshot("p")
		ws, _ := wire.Stats().ProgSnapshot("p")
		if fs.Insns != ws.Insns || fs.OpClass != ws.OpClass {
			t.Fatalf("stats divergence: fast %d %v, wire %d %v", fs.Insns, fs.OpClass, ws.Insns, ws.OpClass)
		}
	}
	return err
}

// TestFusedBudgetBoundary sweeps the instruction budget across a
// program full of fused pairs: at every boundary the fast path must
// retire exactly what the wire loop retires and fail identically,
// including the case where the first half of a fused pair itself
// faults with the last budget unit. Every idiom run, and every near
// miss of one, is swept from budget 0 to one past its full retirement,
// with stats off and on.
func TestFusedBudgetBoundary(t *testing.T) {
	for _, r := range idiomRuns() {
		t.Run(r.name, func(t *testing.T) {
			prog := r.program(-1)
			fast, wire, fp, wp := newPair(t, prog, r.setup)
			sites, runs := fp.FusedSites(), fp.IdiomRuns()
			switch {
			case r.kind == "" && len(runs) != 0:
				t.Fatalf("a near miss formed runs %v (%v)", runs, sites)
			case r.kind != "" && (sites[r.kind] != 1 || len(runs) != 1 || runs[r.pc(0)] != r.pc(len(r.run))-r.pc(0)):
				t.Fatalf("runs %v (%v), want one %s over pcs %d..%d", runs, sites, r.kind, r.pc(0), r.pc(len(r.run))-1)
			}
			err := runBothStats(t, fast, wire, fp, wp)
			switch {
			case r.fault == nil && err != nil:
				t.Fatalf("full budget: %v", err)
			case r.fault != nil && (!errors.Is(err, r.fault) ||
				!strings.HasPrefix(err.Error(), fmt.Sprintf("at %d ", r.pc(r.faultAt)))):
				t.Fatalf("full budget: err = %v, want %v at pc %d", err, r.fault, r.pc(r.faultAt))
			}
			full := int(wire.InsnCount)
			for _, stats := range []bool{false, true} {
				for budget := 0; budget <= full+1; budget++ {
					fast, wire, fp, wp := newPair(t, prog, r.setup)
					if stats {
						fast.SetStats(vm.NewStats())
						wire.SetStats(vm.NewStats())
					}
					fast.Budget, wire.Budget = budget, budget
					err := runBothStats(t, fast, wire, fp, wp)
					if budget < full && !errors.Is(err, vm.ErrBudget) {
						t.Fatalf("stats=%v budget %d of %d: err = %v, want ErrBudget", stats, budget, full, err)
					}
				}
			}
		})
	}

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
