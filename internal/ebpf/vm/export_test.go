package vm

// Test-only view of the decoded IR for the external tests in this
// directory: which fused kinds exist, and where a program uses them.

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
