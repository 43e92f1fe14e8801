package vm

import (
	"sort"

	"enetstl/internal/trace"
)

// Test-only views for the external tests in this directory: the
// decoded IR (which fused kinds exist, and where a program uses them),
// the jit's blocks, and the VM's attachments.

// fusedKindNames names every kind from kFuseLea up, in kind order. The
// array is sized from the const block, so a fused kind added there
// without a name here shows up as "" in FusedKindNames.
var fusedKindNames = [kindCount - kFuseLea]string{
	kFuseLea - kFuseLea:        "kFuseLea",
	kFuseMovHelper - kFuseLea:  "kFuseMovHelper",
	kFuseMovKfunc - kFuseLea:   "kFuseMovKfunc",
	kFuseAddJa - kFuseLea:      "kFuseAddJa",
	kFuseAlu2 - kFuseLea:       "kFuseAlu2",
	kFuseShlAdd - kFuseLea:     "kFuseShlAdd",
	kFuseMovShr - kFuseLea:     "kFuseMovShr",
	kRunLookup - kFuseLea:      "kRunLookup",
	kRunLookupArray - kFuseLea: "kRunLookupArray",
}

// FusedKindNames lists every fused kind the IR defines.
func FusedKindNames() []string { return fusedKindNames[:] }

// FusedSites counts p's decoded slots per fused kind: the static
// histogram of what the peephole fuser emitted for this program.
func (p *Program) FusedSites() map[string]int {
	sites := make(map[string]int)
	for i := range p.dec {
		if k := p.dec[i].kind; k >= kFuseLea {
			sites[fusedKindNames[k-kFuseLea]]++
		}
	}
	return sites
}

// HookLoad calls f with every Program any VM loads until the returned
// restore function runs.
func HookLoad(f func(*Program)) (restore func()) {
	testHookLoad = f
	return func() { testHookLoad = nil }
}

// LookupRun describes one map-lookup run head the fuser formed.
type LookupRun struct {
	PC     int  // slot of the ld_imm64 head
	Array  bool // kRunLookupArray (inline element pointer) rather than kRunLookup
	Folded bool // the trailing jne/jeq r0,0 is part of the run
}

// LookupRuns lists p's lookup run heads in pc order.
func (p *Program) LookupRuns() []LookupRun {
	var runs []LookupRun
	for pc := range p.dec {
		if d := &p.dec[pc]; d.kind == kRunLookup || d.kind == kRunLookupArray {
			runs = append(runs, LookupRun{PC: pc, Array: d.kind == kRunLookupArray, Folded: d.src != 0})
		}
	}
	return runs
}

// FusedPairs returns how many adjacent instruction pairs the predecode
// peephole fuser collapsed into super-ops.
func (p *Program) FusedPairs() int { return p.fused }

// CompileJIT eagerly builds the block-compiled form of p (normally done
// lazily on the first TierJIT run) and reports whether it is available.
// Programs the predecoder refused (nil decoded stream) do not compile.
func (vm *VM) CompileJIT(p *Program) bool {
	if p.dec == nil {
		return false
	}
	if p.jit == nil && !p.jitTried {
		p.jitTried = true
		p.jit = compileJIT(vm, p)
	}
	return p.jit != nil
}

// JITBlockStarts returns the sorted start pcs of every compiled basic
// block (including out-of-range error blocks branches may name), or nil
// if the program has not been compiled.
func (p *Program) JITBlockStarts() []int {
	if p.jit == nil {
		return nil
	}
	starts := make([]int, 0, len(p.jit.blocks))
	for pc := range p.jit.blocks {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	return starts
}

// Recorder returns the attached flight recorder, or nil.
func (vm *VM) Recorder() *trace.Recorder { return vm.rec }
