package verifier_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
)

// genSoundnessProgram builds the seed's random program and the machine
// (one 32-byte array map) it is meant for. The mix aims at the places
// the verifier reasons hardest: masked and unmasked indices added to the
// context or a map-value pointer, unsigned and signed range checks,
// division by constants and registers that may be zero, stack slots that
// may be unwritten, and one counted loop per program, so states meet
// again at its jumps.
func genSoundnessProgram(seed int64) (*vm.VM, []isa.Instruction, error) {
	rng := rand.New(rand.NewSource(seed))
	machine := vm.New()
	fd := machine.RegisterMap(maps.Must(maps.NewArray(32, 4)))
	b := asm.New()
	// R6 pins the context pointer (callee-saved and outside the pool);
	// R2 is in the pool so that some reads follow a call's clobber.
	b.Mov(asm.R6, asm.R1)
	regs := []isa.Reg{asm.R0, asm.R2, asm.R7, asm.R8}
	// Seed every register and a few stack slots so generated reads
	// are usually (not always) initialized.
	for _, r := range regs {
		if rng.Intn(16) > 0 {
			b.MovImm(r, int32(rng.Uint32()))
		}
	}
	for s := 1; s <= 4; s++ {
		if rng.Intn(16) > 0 {
			b.StoreImm(asm.R10, int16(-8*s), int32(rng.Uint32()), 8)
		}
	}
	labels := 0
	label := func() string {
		labels++
		return fmt.Sprintf("l%d", labels)
	}
	signed := []asm.Cond{asm.JSGE, asm.JSLT, asm.JSGT}
	op := func() {
		dst := regs[rng.Intn(len(regs))]
		src := regs[rng.Intn(len(regs))]
		switch rng.Intn(15) {
		case 0:
			b.MovImm(dst, int32(rng.Uint32()))
		case 1:
			b.Mov(dst, src)
		case 2:
			b.AddImm(dst, int32(rng.Intn(64)-16))
		case 3:
			b.Add(dst, src)
		case 4:
			b.AndImm(dst, int32(rng.Intn(256)))
		case 5:
			b.Store(asm.R10, int16(-8*(1+rng.Intn(4))), src, 8)
		case 6:
			b.Load(dst, asm.R10, int16(-8*(1+rng.Intn(4))), 8)
		case 7:
			b.Load(dst, asm.R6, int16(rng.Intn(68)), 4) // sometimes OOB ctx
		case 8:
			// Map lookup with a random key slot (may be uninit).
			b.StoreImm(asm.R10, -4, int32(rng.Intn(6)), 4)
			b.LoadMap(asm.R1, fd)
			b.Mov(asm.R2, asm.R10)
			b.AddImm(asm.R2, -4)
			b.Call(vm.HelperMapLookup)
			if rng.Intn(2) == 0 {
				lbl := label()
				b.JmpImm(asm.JNE, asm.R0, 0, lbl)
				b.MovImm(asm.R0, 0)
				b.Exit()
				b.Label(lbl)
			}
			// Sometimes index into the value by a register (unsafe
			// unless something bounded it), sometimes dereference R0
			// (unsafe without the check).
			if rng.Intn(3) == 0 {
				b.AndImm(src, int32(rng.Intn(40)))
				b.Add(asm.R0, src)
			}
			if rng.Intn(2) == 0 {
				b.Load(dst, asm.R0, int16(rng.Intn(40)), 4)
			}
		case 9:
			lbl := label()
			b.JmpImm(asm.JGT, dst, int32(rng.Intn(100)), lbl)
			b.Label(lbl)
		case 10:
			b.DivImm(dst, int32(rng.Intn(8))) // sometimes /0
		case 11:
			b.Lsh(dst, src)
		case 12:
			// A signed range check, skipping one instruction when taken.
			lbl := label()
			b.JmpImm(signed[rng.Intn(len(signed))], dst, int32(rng.Intn(24)-4), lbl)
			b.MovImm(dst, int32(rng.Intn(8)))
			b.Label(lbl)
		case 13:
			// An index, usually masked, added to the context pointer.
			if rng.Intn(4) > 0 {
				b.AndImm(src, int32(rng.Intn(80)))
			}
			b.Mov(asm.R3, asm.R6)
			b.Add(asm.R3, src)
			b.Load(dst, asm.R3, 0, 1)
		case 14:
			if rng.Intn(2) == 0 {
				b.Div(dst, src)
			} else {
				b.Mod(dst, src)
			}
		}
	}
	n := 3 + rng.Intn(20)
	loopAt := rng.Intn(n)
	for i := 0; i < n; i++ {
		if i == loopAt {
			// R9 is outside the pool, so the body preserves the counter.
			b.BoundedLoop(asm.R9, int32(2+rng.Intn(7)), func(*asm.Builder) {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					op()
				}
			})
		}
		op()
	}
	b.MovImm(asm.R0, 0)
	b.Exit()
	prog, err := b.Program()
	return machine, prog, err
}

// soundnessContexts are the two packets every accepted program runs on:
// a byte ramp, and all-ones, whose 8-byte loads are negative as signed
// values and huge as unsigned ones (the ramp never produces either).
func soundnessContexts(size int) [2][]byte {
	ramp, ones := make([]byte, size), make([]byte, size)
	for i := range ramp {
		ramp[i], ones[i] = byte(i), 0xff
	}
	return [2][]byte{ramp, ones}
}

// faultOnEitherContext runs a loaded program on both soundness contexts
// and returns the first error that is not budget exhaustion (the
// kernel's runtime bound, not a safety failure).
func faultOnEitherContext(machine *vm.VM, loaded *vm.Program) error {
	for _, ctx := range soundnessContexts(64) {
		if _, err := machine.Run(loaded, ctx); err != nil && !errors.Is(err, vm.ErrBudget) {
			return err
		}
	}
	return nil
}

// TestSoundnessFuzz generates random programs and checks the verifier's
// core guarantee: any program it accepts executes without memory
// faults, leaks, or lock violations (budget exhaustion is legal — the
// kernel's runtime bound, not a safety failure).
func TestSoundnessFuzz(t *testing.T) {
	const trials = 3000
	accepted, rejected := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		machine, prog, err := genSoundnessProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		if err := verifier.Verify(machine, prog, verifier.Options{CtxSize: 64}); err != nil {
			rejected++
			continue
		}
		accepted++
		loaded, err := machine.Load("fuzz", prog)
		if err != nil {
			t.Fatalf("seed %d: accepted but load failed: %v", seed, err)
		}
		if err := faultOnEitherContext(machine, loaded); err != nil {
			t.Fatalf("seed %d: verifier accepted a faulting program: %v\n%s",
				seed, err, isa.Disassemble(prog))
		}
	}
	if accepted < trials/20 {
		t.Fatalf("fuzz accepted %d of %d programs — generator too hostile", accepted, trials)
	}
	t.Logf("soundness fuzz: %d accepted, %d rejected", accepted, rejected)
}
