package vm_test

import (
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// TestJITLeadersCoverBranchTargets is the block-splitting soundness
// property: every jump target the wire stream can name must begin a
// compiled block, otherwise a taken branch would land mid-closure. The
// compiler may create extra leaders (fall-throughs, call returns) —
// the property is superset, not equality.
func TestJITLeadersCoverBranchTargets(t *testing.T) {
	compiled := 0
	for seed := uint64(0); seed < 300; seed++ {
		prog, err := difftest.GenProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		machine := vm.New()
		machine.RegisterMap(maps.Must(maps.NewArray(difftest.GenMapValueSize, difftest.GenMapEntries)))
		loaded, err := machine.Load("jitprop", prog)
		if err != nil {
			continue // verifier rejection: nothing to compile
		}
		if !machine.CompileJIT(loaded) {
			t.Fatalf("seed %d: program did not compile", seed)
		}
		compiled++
		starts := make(map[int]bool)
		for _, pc := range loaded.JITBlockStarts() {
			starts[pc] = true
		}
		if !starts[0] {
			t.Fatalf("seed %d: entry pc 0 is not a block leader", seed)
		}
		for pc, isTarget := range isa.BranchTargets(prog) {
			if isTarget && !starts[pc] {
				t.Fatalf("seed %d: jump target %d is not a block leader (leaders %v)",
					seed, pc, loaded.JITBlockStarts())
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no generated program compiled — the property never ran")
	}
}

// TestJITHalfwordStoresAndMidBlockFault runs what no catalog or
// generated program does on the jit: 16-bit stack stores (register and
// immediate), and a load that faults in the middle of a compiled block.
// Every tier must return the same value, and fail with the same error
// after the same retired-instruction count.
func TestJITHalfwordStoresAndMidBlockFault(t *testing.T) {
	stores := asm.New()
	stores.StoreImm(asm.R10, -8, 0x1234, 2)
	stores.MovImm(asm.R1, 0xABCD)
	stores.Store(asm.R10, -6, asm.R1, 2)
	stores.Load(asm.R0, asm.R10, -8, 4)
	stores.Exit()

	fault := asm.New()
	fault.MovImm(asm.R0, 7)
	fault.MovImm(asm.R1, 0)
	fault.Load(asm.R0, asm.R1, 8, 4) // null dereference
	fault.Exit()

	type outcome struct {
		ret   uint64
		err   string
		insns uint64
	}
	run := func(tier vm.Tier, b *asm.Builder) outcome {
		m := vm.New()
		m.SetTier(tier)
		p, err := m.Load("p", b.MustProgram())
		if err != nil {
			t.Fatal(err)
		}
		ret, err := m.Run(p, nil)
		o := outcome{ret: ret, insns: m.InsnCount}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	for name, b := range map[string]*asm.Builder{"stores": stores, "fault": fault} {
		ref := run(vm.TierPredecoded, b)
		if name == "stores" && (ref.err != "" || ref.ret != 0xABCD1234) {
			t.Fatalf("stores: predecoded returned %#x, %q; want 0xabcd1234", ref.ret, ref.err)
		}
		if name == "fault" && ref.err == "" {
			t.Fatal("fault: predecoded ran a null dereference without error")
		}
		for _, tier := range []vm.Tier{vm.TierWire, vm.TierJIT} {
			if got := run(tier, b); got != ref {
				t.Errorf("%s on %v: %+v, predecoded %+v", name, tier, got, ref)
			}
		}
	}
}
