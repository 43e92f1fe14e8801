package vm_test

import (
	"testing"

	"enetstl/internal/difftest"
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
