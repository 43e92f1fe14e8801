package verifier

import (
	"errors"
	"strings"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// minScan is the reduction spacesaving's eBPF flavour ends with: walk n
// u32 counters of a map value keeping the minimum in R4 and its index in
// R8, then store through the index. With masked the index reaches the
// pointer through `and r8, n-1`, as the NF writes it; without, it is
// added as it is.
func minScan(fd int32, n int32, masked bool) []isa.Instruction {
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "found")
	b.MovImm(asm.R0, 0).Exit()
	b.Label("found")
	b.Mov(asm.R7, asm.R0)
	b.MovImm(asm.R8, 0)  // argmin
	b.MovImm(asm.R4, -1) // min
	b.BoundedLoop(asm.R5, n, func(b *asm.Builder) {
		b.Mov(asm.R0, asm.R5)
		b.AndImm(asm.R0, n-1)
		b.LshImm(asm.R0, 2)
		b.Add(asm.R0, asm.R7)
		b.Load(asm.R1, asm.R0, 0, 4)
		b.Jmp(asm.JGE, asm.R1, asm.R4, "skip_min")
		b.Mov(asm.R4, asm.R1)
		b.Mov(asm.R8, asm.R5)
		b.Label("skip_min")
	})
	if masked {
		b.AndImm(asm.R8, n-1)
	}
	b.LshImm(asm.R8, 2)
	b.Add(asm.R8, asm.R7)
	b.AddImm(asm.R4, 1)
	b.Store(asm.R8, 0, asm.R4, 4)
	b.MovImm(asm.R0, 0).Exit()
	return b.MustProgram()
}

// TestMinScanVerifiesInLinearWork pins both halves of precision-demand
// pruning on the loop that motivated it. The argmin is observed by no
// check before its mask, so the states of one iteration that differ only
// in it compare equal and the 64-entry scan costs a few thousand steps
// (the exact-identity verifier walked it once per (iteration, argmin)
// pair: over 20 000). Take the mask away and the store observes the
// index itself, so it is demanded all the way up the loop, nothing is
// widened, and the same budget runs out: the program is still safe, and
// proving it still takes every constant the index can hold.
func TestMinScanVerifiesInLinearWork(t *testing.T) {
	const n = 64
	m := vm.New()
	fd := m.RegisterMap(maps.Must(maps.NewArray(n*4, 1)))
	small := Options{StateBudget: 8192}

	c, err := verify(m, minScan(fd, n, true), small)
	if err != nil {
		t.Fatalf("masked min-scan rejected: %v", err)
	}
	t.Logf("masked min-scan: %d steps, %d states", c.steps, len(c.seen))
	if c.steps > 4500 || len(c.seen) > 1000 {
		t.Fatalf("min-scan took %d steps and %d states, want at most 4500 and 1000: the loop is quadratic again",
			c.steps, len(c.seen))
	}

	_, err = verify(m, minScan(fd, n, false), small)
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "budget exhausted: unbounded loop") {
		t.Fatalf("unmasked min-scan must exhaust the same budget, got %v", err)
	}
	c, err = verify(m, minScan(fd, n, false), Options{})
	if err != nil {
		t.Fatalf("unmasked min-scan is safe (the index is one of %d constants) but was rejected: %v", n, err)
	}
	t.Logf("unmasked min-scan: %d steps, %d states", c.steps, len(c.seen))
}

// TestDemandPass checks the backward pass on a program small enough to
// read: what is demanded where, and that a mask cuts bound demand only.
func TestDemandPass(t *testing.T) {
	b := asm.New()
	b.Mov(asm.R6, asm.R1)               // 0
	b.Load(asm.R7, asm.R6, 0, 4)        // 1
	b.Mov(asm.R8, asm.R7)               // 2
	b.Mov(asm.R9, asm.R7)               // 3
	b.AndImm(asm.R8, 15)                // 4: cuts the bound demand of the load at 8
	b.AndImm(asm.R9, 15)                // 5: passes on the value demand of the branch at 6
	b.JmpImm(asm.JGT, asm.R9, 3, "out") // 6
	b.Add(asm.R8, asm.R6)               // 7
	b.Load(asm.R0, asm.R8, 0, 1)        // 8
	b.Exit()                            // 9
	b.Label("out")
	b.MovImm(asm.R0, 0).Exit() // 10, 11
	c, err := verify(vm.New(), b.MustProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		pc       int
		val, bnd regMask
	}{
		{11, 0, 0},
		{8, 0, bit(asm.R8)},
		{7, 0, bit(asm.R8) | bit(asm.R6)},
		{6, bit(asm.R9), bit(asm.R8) | bit(asm.R6)},
		{5, bit(asm.R9), bit(asm.R8) | bit(asm.R6)},
		{4, bit(asm.R9), bit(asm.R6)},
		{3, bit(asm.R7), bit(asm.R6)},
		{1, 0, bit(asm.R6)},
		{0, 0, bit(asm.R1)},
	} {
		if c.valDemand[want.pc] != want.val || c.bndDemand[want.pc] != want.bnd {
			t.Errorf("pc %d: value demand %#b bound demand %#b, want %#b and %#b",
				want.pc, c.valDemand[want.pc], c.bndDemand[want.pc], want.val, want.bnd)
		}
	}
}
