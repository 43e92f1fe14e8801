// Seeded generator of verifier-valid programs, and the cross-check
// driver that runs each generated program on both interpreters and
// compares the complete final machine state.
//
// The generator builds programs from templates that are valid by
// construction (registers initialized before use, stack slots written
// before read, map-lookup results null-checked, all branches forward),
// so nearly everything it emits passes the verifier and the
// differential corpus exercises deep executions rather than rejects.

package difftest

import (
	"bytes"
	"fmt"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
)

// Map shape shared by both machines in every differential run.
const (
	GenMapValueSize = 8
	GenMapEntries   = 16
)

// genRNG is a splitmix64 stream — deterministic and dependency-free.
type genRNG struct{ s uint64 }

func (g *genRNG) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (g *genRNG) intn(n int) int { return int(g.next() % uint64(n)) }

// GenProgram emits a seeded, verifier-valid program using the ALU,
// branch, stack, context, helper-call, and array-map surfaces. Same
// seed, same program.
func GenProgram(seed uint64) ([]isa.Instruction, error) {
	rng := &genRNG{s: seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	b := asm.New()
	const fd = 0 // single array map, registered first on both machines

	// R6 pins the context pointer across helper calls (callee-saved);
	// R0, R7-R9 form the scalar working pool.
	pool := []isa.Reg{asm.R0, asm.R7, asm.R8, asm.R9}
	b.Mov(asm.R6, asm.R1)
	for _, r := range pool {
		b.MovImm(r, int32(uint32(rng.next())))
	}
	// Scratch stack slots -8..-64, each written before any read.
	var slotInit [8]bool
	labels := 0
	label := func(prefix string) string {
		labels++
		return fmt.Sprintf("%s_%d", prefix, labels)
	}
	pick := func() isa.Reg { return pool[rng.intn(len(pool))] }

	aluImm := []func(isa.Reg, int32) *asm.Builder{
		b.AddImm, b.SubImm, b.MulImm, b.AndImm, b.OrImm, b.XorImm,
		b.DivImm, b.ModImm, b.MovImm,
	}
	aluReg := []func(isa.Reg, isa.Reg) *asm.Builder{
		b.Add, b.Sub, b.Mul, b.And, b.Or, b.Xor, b.Lsh, b.Rsh, b.Arsh,
		b.Div, b.Mod, b.Mov,
	}
	conds := []asm.Cond{asm.JEQ, asm.JNE, asm.JGT, asm.JGE, asm.JLT,
		asm.JLE, asm.JSGT, asm.JSGE, asm.JSLT, asm.JSLE, asm.JSET}

	n := 8 + rng.intn(24)
	for i := 0; i < n; i++ {
		switch rng.intn(10) {
		case 0, 1:
			aluImm[rng.intn(len(aluImm))](pick(), int32(uint32(rng.next())))
		case 2, 3:
			aluReg[rng.intn(len(aluReg))](pick(), pick())
		case 4:
			// ALU32 forms: exercises zero-extension semantics.
			if rng.intn(2) == 0 {
				b.Mov32Imm(pick(), int32(uint32(rng.next())))
			} else {
				b.Add32(pick(), pick())
			}
		case 5:
			s := rng.intn(8)
			b.Store(asm.R10, int16(-8*(s+1)), pick(), 8)
			slotInit[s] = true
		case 6:
			s := rng.intn(8)
			if !slotInit[s] {
				b.Store(asm.R10, int16(-8*(s+1)), pick(), 8)
				slotInit[s] = true
			}
			b.Load(pick(), asm.R10, int16(-8*(s+1)), 8)
		case 7:
			// Context read at a size-aligned offset.
			size := []int{1, 2, 4, 8}[rng.intn(4)]
			off := size * rng.intn(64/size)
			b.Load(pick(), asm.R6, int16(off), size)
		case 8:
			// Forward branch over a short filler block.
			l := label("j")
			if rng.intn(2) == 0 {
				b.JmpImm(conds[rng.intn(len(conds))], pick(), int32(uint32(rng.next())), l)
			} else {
				b.Jmp(conds[rng.intn(len(conds))], pick(), pick(), l)
			}
			for k := rng.intn(3) + 1; k > 0; k-- {
				aluImm[rng.intn(len(aluImm))](pick(), int32(uint32(rng.next())))
			}
			b.Label(l)
		case 9:
			switch rng.intn(4) {
			case 0:
				b.Call(vm.HelperKtimeGetNS)
			case 1:
				b.Call(vm.HelperGetPrandomU32)
			case 2:
				// Null-checked lookup; the out-of-range third of the key
				// space exercises the miss path. Both arms leave every
				// register they touched at the same scalar so the join
				// state is identical. The call site is the shape the
				// predecoder lowers to one lookup run; the two variations
				// are its near-misses — a key stored from a register in
				// front of it, and a null check on a copy of R0, which the
				// run must leave outside.
				idx := rng.intn(GenMapEntries + GenMapEntries/2)
				scalars := pool[1:] // not R0: it receives the pointer
				if rng.intn(2) == 0 {
					b.StoreImm(asm.R10, -128, int32(idx), 4)
				} else {
					k := scalars[rng.intn(len(scalars))]
					b.MovImm(k, int32(idx))
					b.Store(asm.R10, -128, k, 4)
				}
				b.LoadMap(asm.R1, fd)
				b.Mov(asm.R2, asm.R10)
				b.AddImm(asm.R2, -128)
				b.Call(vm.HelperMapLookup)
				miss, done := label("miss"), label("done")
				norm := int32(uint32(rng.next()))
				at := rng.intn(len(scalars))
				ptr, dst := asm.R0, scalars[at]
				if rng.intn(3) == 0 {
					ptr, dst = scalars[at], scalars[(at+1)%len(scalars)]
					b.Mov(ptr, asm.R0)
				}
				b.JmpImm(asm.JEQ, ptr, 0, miss)
				switch rng.intn(3) {
				case 0:
					b.Load(dst, ptr, 0, 8)
				case 1:
					b.Store(ptr, 0, dst, 8)
				case 2:
					b.Load(dst, ptr, 0, 8)
					b.AddImm(dst, 1)
					b.Store(ptr, 0, dst, 8)
				}
				// R0 last: it is ptr itself unless the check was on a copy.
				b.MovImm(ptr, norm)
				b.MovImm(asm.R0, norm)
				b.Ja(done)
				b.Label(miss)
				b.MovImm(ptr, norm)
				b.MovImm(asm.R0, norm)
				b.Label(done)
			case 3:
				idx := rng.intn(GenMapEntries + GenMapEntries/2)
				b.StoreImm(asm.R10, -128, int32(idx), 4)
				b.Store(asm.R10, -136, pick(), 8)
				b.LoadMap(asm.R1, fd)
				b.Mov(asm.R2, asm.R10)
				b.AddImm(asm.R2, -128)
				b.Mov(asm.R3, asm.R10)
				b.AddImm(asm.R3, -136)
				b.MovImm(asm.R4, 0) // flags: must be a known scalar
				b.Call(vm.HelperMapUpdate)
			}
		}
	}
	b.Mov(asm.R0, pool[1+rng.intn(len(pool)-1)])
	b.Exit()
	return b.Program()
}

// vmRun executes prog on a fresh production VM under the given
// execution tier and captures the complete observable state: error,
// final registers, stack, mutated context, map arena, and the retired
// instruction count.
func vmRun(prog []isa.Instruction, ctx []byte, tier vm.Tier) (sink [isa.NumRegs]uint64, stack, runCtx, mapData []byte, insns uint64, runErr error, loadErr error) {
	machine := vm.New()
	machine.SetTier(tier)
	arr := maps.Must(maps.NewArray(GenMapValueSize, GenMapEntries))
	machine.RegisterMap(arr)
	loaded, err := machine.Load("difftest", prog)
	if err != nil {
		return sink, nil, nil, nil, 0, nil, err
	}
	machine.RegSink = &sink
	runCtx = append([]byte(nil), ctx...)
	_, runErr = machine.Run(loaded, runCtx)
	return sink, machine.Stack(), runCtx, arr.Data(), machine.InsnCount, runErr, nil
}

// CrossCheck verifies prog, then runs it four ways — the predecoded
// fast-path interpreter, the block-compiled JIT tier, the wire-format
// reference loop, and the independent reference interpreter — over the
// same context bytes and compares the complete final state pairwise:
// error nil-ness, all eleven registers (pointer encodings are
// deterministic, so raw equality is exact), the stack, the context, the
// map arena, and the retired instruction count. The fast, jit, and wire
// paths must agree bit-for-bit even on failure, down to the error text;
// RefVM agreement is on nil-ness plus success-state equality. A nil
// return means all machines agree; verifier rejection is reported as
// ErrRejected for the caller to count.
func CrossCheck(prog []isa.Instruction, ctx []byte) error {
	chk := vm.New()
	chk.RegisterMap(maps.Must(maps.NewArray(GenMapValueSize, GenMapEntries)))
	if err := verifier.Verify(chk, prog, verifier.Options{CtxSize: len(ctx)}); err != nil {
		return err
	}

	fastRegs, fastStack, fastCtx, fastMap, fastInsns, fastErr, loadErr := vmRun(prog, ctx, vm.TierPredecoded)
	if loadErr != nil {
		return fmt.Errorf("load: %w", loadErr)
	}
	wireRegs, wireStack, wireCtx, wireMap, wireInsns, wireErr, loadErr := vmRun(prog, ctx, vm.TierWire)
	if loadErr != nil {
		return fmt.Errorf("load (wire): %w", loadErr)
	}
	jitRegs, jitStack, jitCtx, jitMap, jitInsns, jitErr, loadErr := vmRun(prog, ctx, vm.TierJIT)
	if loadErr != nil {
		return fmt.Errorf("load (jit): %w", loadErr)
	}

	// Predecoded vs wire-format: the fast path is a pure reimplementation
	// of the same machine, so even the error text must match.
	switch {
	case (fastErr == nil) != (wireErr == nil):
		return fmt.Errorf("error divergence: fast=%v wire=%v", fastErr, wireErr)
	case fastErr != nil && fastErr.Error() != wireErr.Error():
		return fmt.Errorf("error text divergence:\n  fast: %v\n  wire: %v", fastErr, wireErr)
	case fastRegs != wireRegs:
		return fmt.Errorf("register divergence:\n  fast: %x\n  wire: %x", fastRegs, wireRegs)
	case !bytes.Equal(fastStack, wireStack):
		return fmt.Errorf("stack divergence (fast vs wire)")
	case !bytes.Equal(fastCtx, wireCtx):
		return fmt.Errorf("context divergence (fast vs wire)")
	case !bytes.Equal(fastMap, wireMap):
		return fmt.Errorf("map state divergence (fast vs wire)")
	case fastInsns != wireInsns:
		return fmt.Errorf("insn count divergence: fast=%d wire=%d", fastInsns, wireInsns)
	}

	// JIT vs wire-format: held to the same bit-for-bit standard, budget
	// accounting included.
	switch {
	case (jitErr == nil) != (wireErr == nil):
		return fmt.Errorf("error divergence: jit=%v wire=%v", jitErr, wireErr)
	case jitErr != nil && jitErr.Error() != wireErr.Error():
		return fmt.Errorf("error text divergence:\n  jit : %v\n  wire: %v", jitErr, wireErr)
	case jitRegs != wireRegs:
		return fmt.Errorf("register divergence:\n  jit : %x\n  wire: %x", jitRegs, wireRegs)
	case !bytes.Equal(jitStack, wireStack):
		return fmt.Errorf("stack divergence (jit vs wire)")
	case !bytes.Equal(jitCtx, wireCtx):
		return fmt.Errorf("context divergence (jit vs wire)")
	case !bytes.Equal(jitMap, wireMap):
		return fmt.Errorf("map state divergence (jit vs wire)")
	case jitInsns != wireInsns:
		return fmt.Errorf("insn count divergence: jit=%d wire=%d", jitInsns, wireInsns)
	}

	ref := NewRef()
	ref.AddArray(GenMapValueSize, GenMapEntries)
	refCtx := append([]byte(nil), ctx...)
	refRegs, refErr := ref.Run(prog, refCtx)

	if (fastErr == nil) != (refErr == nil) {
		return fmt.Errorf("error divergence: vm=%v ref=%v", fastErr, refErr)
	}
	if fastErr != nil {
		return nil // all three faulted; error taxonomy is not part of the spec
	}
	if fastRegs != refRegs {
		return fmt.Errorf("register divergence:\n  vm : %x\n  ref: %x", fastRegs, refRegs)
	}
	if !bytes.Equal(fastStack, ref.Stack[:]) {
		return fmt.Errorf("stack divergence")
	}
	if !bytes.Equal(fastCtx, refCtx) {
		return fmt.Errorf("context divergence")
	}
	if !bytes.Equal(fastMap, ref.Maps[0].Data) {
		return fmt.Errorf("map state divergence")
	}
	return nil
}
