package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// jitCtx is the fixed context every jit property test replays — same
// shape the difftest sweep uses.
func jitCtx() []byte {
	ctx := make([]byte, 64)
	for i := range ctx {
		ctx[i] = byte(i*7 + 1)
	}
	return ctx
}

// parityProgs is what the jit parity tests run: n generated programs,
// then the hand-built shapes (counted loops, the two-block cycle, the
// long straight-line block) whose back edges the forward-branching
// generator never emits, then the one shape that cannot be a fuzz seed:
// the verifier refuses a loop that never exits, so only these tests,
// which load without verifying, run the add+ja self-spin.
func parityProgs(t *testing.T, n uint64) []fuzzSeed {
	var progs []fuzzSeed
	for seed := uint64(0); seed < n; seed++ {
		prog, err := GenProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, fuzzSeed{name: fmt.Sprint(seed), prog: prog})
	}
	progs = append(progs, shapeSeeds()...)
	return append(progs, shape("spin", func(b *asm.Builder) {
		b.MovImm(asm.R0, 0)
		b.Label("top")
		b.AddImm(asm.R0, 1)
		b.Ja("top")
	}))
}

// TestJITStateParity is the dedicated jit-vs-predecoded conformance
// sweep: same generated corpus the CrossCheck driver uses, but compared
// head-to-head so a divergence names the jit tier directly. Full final
// state — registers, stack, context, map arena, retired instruction
// count, and error text — must match bit-for-bit.
func TestJITStateParity(t *testing.T) {
	ctx := jitCtx()
	executed := 0
	for _, p := range parityProgs(t, 300) {
		seed, prog := p.name, p.prog
		fastRegs, fastStack, fastCtx, fastMap, fastInsns, fastErr, loadErr := vmRun(prog, ctx, vm.TierPredecoded)
		if loadErr != nil {
			continue
		}
		jitRegs, jitStack, jitCtx, jitMap, jitInsns, jitErr, loadErr := vmRun(prog, ctx, vm.TierJIT)
		if loadErr != nil {
			t.Fatalf("seed %s: jit load failed after predecoded load succeeded: %v", seed, loadErr)
		}
		executed++
		switch {
		case (jitErr == nil) != (fastErr == nil):
			t.Fatalf("seed %s: error divergence: jit=%v fast=%v", seed, jitErr, fastErr)
		case jitErr != nil && jitErr.Error() != fastErr.Error():
			t.Fatalf("seed %s: error text divergence:\n  jit : %v\n  fast: %v", seed, jitErr, fastErr)
		case jitRegs != fastRegs:
			t.Fatalf("seed %s: register divergence:\n  jit : %x\n  fast: %x", seed, jitRegs, fastRegs)
		case !bytes.Equal(jitStack, fastStack):
			t.Fatalf("seed %s: stack divergence", seed)
		case !bytes.Equal(jitCtx, fastCtx):
			t.Fatalf("seed %s: context divergence", seed)
		case !bytes.Equal(jitMap, fastMap):
			t.Fatalf("seed %s: map state divergence", seed)
		case jitInsns != fastInsns:
			t.Fatalf("seed %s: insn count divergence: jit=%d fast=%d", seed, jitInsns, fastInsns)
		}
	}
	if executed == 0 {
		t.Fatal("no generated program executed — the parity sweep never ran")
	}
}

// runWithBudget is vmRun with an explicit instruction budget, for the
// exhaustion-parity sweep.
func runWithBudget(prog []isa.Instruction, ctx []byte, tier vm.Tier, budget int) (sink [isa.NumRegs]uint64, stack, runCtx, mapData []byte, insns uint64, runErr error, loadErr error) {
	machine := vm.New()
	machine.SetTier(tier)
	machine.Budget = budget
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

// TestJITBudgetSweepParity pins the hardest parity property: the jit
// pre-charges whole blocks and refunds on fault, so every budget from 0
// to just past the program's full retirement count must land on exactly
// the wire interpreter's state — same ErrBudget cut at the same
// instruction, same partial side effects, same retired count.
func TestJITBudgetSweepParity(t *testing.T) {
	ctx := jitCtx()
	swept := 0
	for _, p := range parityProgs(t, 24) {
		seed, prog := p.name, p.prog
		// Full retirement count under an ample budget sizes the sweep. The
		// spin loop never retires: 64 units cut it at every point of many
		// trips round.
		_, _, _, _, full, fullErr, loadErr := vmRun(prog, ctx, vm.TierWire)
		if loadErr != nil {
			continue
		}
		if errors.Is(fullErr, vm.ErrBudget) {
			full = 64
		}
		swept++
		for budget := 0; budget <= int(full)+4; budget++ {
			wireRegs, wireStack, wireCtx, wireMap, wireInsns, wireErr, _ := runWithBudget(prog, ctx, vm.TierWire, budget)
			jitRegs, jitStack, jitCtx, jitMap, jitInsns, jitErr, _ := runWithBudget(prog, ctx, vm.TierJIT, budget)
			switch {
			case (jitErr == nil) != (wireErr == nil):
				t.Fatalf("seed %s budget %d: error divergence: jit=%v wire=%v", seed, budget, jitErr, wireErr)
			case jitErr != nil && jitErr.Error() != wireErr.Error():
				t.Fatalf("seed %s budget %d: error text divergence:\n  jit : %v\n  wire: %v", seed, budget, jitErr, wireErr)
			case jitRegs != wireRegs:
				t.Fatalf("seed %s budget %d: register divergence:\n  jit : %x\n  wire: %x", seed, budget, jitRegs, wireRegs)
			case !bytes.Equal(jitStack, wireStack):
				t.Fatalf("seed %s budget %d: stack divergence", seed, budget)
			case !bytes.Equal(jitCtx, wireCtx):
				t.Fatalf("seed %s budget %d: context divergence", seed, budget)
			case !bytes.Equal(jitMap, wireMap):
				t.Fatalf("seed %s budget %d: map state divergence", seed, budget)
			case jitInsns != wireInsns:
				t.Fatalf("seed %s budget %d: insn count divergence: jit=%d wire=%d", seed, budget, jitInsns, wireInsns)
			}
			if budget < int(full) && !errors.Is(jitErr, vm.ErrBudget) {
				t.Fatalf("seed %s budget %d: want ErrBudget below full retirement (%d), got %v",
					seed, budget, full, jitErr)
			}
		}
	}
	if swept == 0 {
		t.Fatal("no generated program swept — the budget parity sweep never ran")
	}
}
