package harness

import (
	"fmt"
	"sort"
	"strings"

	"enetstl/internal/ebpf/vm"
)

// Callee is one helper or kfunc row in a ProfileReport.
type Callee struct {
	Kind     string // "helper" or "kfunc"
	Name     string
	Calls    uint64
	Ns       uint64
	Fraction float64 // share of total run time spent inside this callee
}

// OpMixEntry is one opcode-class row in a ProfileReport.
type OpMixEntry struct {
	Class    string
	Count    uint64
	Fraction float64 // share of instructions retired
}

// ProfileReport attributes an NF's execution time to its helpers and
// kfuncs, measured directly from VM stats rather than inferred by
// diffing two program variants (the Fig. 1 methodology). Fractions are
// of total run time; InterpFraction is the remainder spent in the
// interpreter loop itself.
type ProfileReport struct {
	Name      string
	Flavor    string
	Packets   int
	RunTimeNs uint64
	Insns     uint64

	Callees        []Callee // sorted by Ns, descending
	OpMix          []OpMixEntry
	InterpFraction float64
}

// Reports builds one attribution table per program st has counted,
// each over that program's run count and labelled label in the Flavor
// column — what the obs server's /profile serves.
func Reports(st *vm.Stats, label string) []*ProfileReport {
	var out []*ProfileReport
	for _, name := range st.ProgNames() {
		if ps, ok := st.ProgSnapshot(name); ok {
			out = append(out, ReportFromProgStats(name, label, int(ps.RunCnt), ps))
		}
	}
	return out
}

// ReportFromProgStats builds the attribution table from a program's
// counters — the back half of Reports.
func ReportFromProgStats(name, flavor string, packets int, ps vm.ProgStats) *ProfileReport {
	rep := &ProfileReport{
		Name: name, Flavor: flavor,
		Packets: packets, RunTimeNs: ps.RunTimeNs, Insns: ps.Insns,
	}
	total := float64(ps.RunTimeNs)
	if total == 0 {
		total = 1 // degenerate clock resolution; keep fractions finite
	}
	var calleeNs uint64
	add := func(kind string, m map[int32]*vm.CallStats) {
		for _, cs := range m {
			calleeNs += cs.Ns
			rep.Callees = append(rep.Callees, Callee{
				Kind: kind, Name: cs.Name, Calls: cs.Count, Ns: cs.Ns,
				Fraction: float64(cs.Ns) / total,
			})
		}
	}
	add("helper", ps.Helpers)
	add("kfunc", ps.Kfuncs)
	sort.Slice(rep.Callees, func(i, j int) bool {
		if rep.Callees[i].Ns != rep.Callees[j].Ns {
			return rep.Callees[i].Ns > rep.Callees[j].Ns
		}
		return rep.Callees[i].Name < rep.Callees[j].Name
	})
	if calleeNs < ps.RunTimeNs {
		rep.InterpFraction = float64(ps.RunTimeNs-calleeNs) / total
	}
	for c := 0; c < vm.NumOpClasses; c++ {
		if ps.OpClass[c] == 0 {
			continue
		}
		rep.OpMix = append(rep.OpMix, OpMixEntry{
			Class: vm.OpClassName(c), Count: ps.OpClass[c],
			Fraction: float64(ps.OpClass[c]) / float64(max64(ps.Insns, 1)),
		})
	}
	sort.Slice(rep.OpMix, func(i, j int) bool { return rep.OpMix[i].Count > rep.OpMix[j].Count })
	return rep
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// String renders the report as an aligned text table.
func (r *ProfileReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: %d packets, %d insns, %d ns total\n",
		r.Name, r.Flavor, r.Packets, r.Insns, r.RunTimeNs)
	fmt.Fprintf(&b, "  %-8s %-20s %10s %12s %7s\n", "kind", "callee", "calls", "ns", "frac")
	for _, c := range r.Callees {
		fmt.Fprintf(&b, "  %-8s %-20s %10d %12d %6.1f%%\n",
			c.Kind, c.Name, c.Calls, c.Ns, 100*c.Fraction)
	}
	if r.Insns == 0 {
		// A native (Kernel-flavour) instance retires no instructions:
		// there is no interpreter time to show and no opcode mix.
		return b.String()
	}
	fmt.Fprintf(&b, "  %-8s %-20s %10s %12s %6.1f%%\n", "interp", "(dispatch+alu)", "", "", 100*r.InterpFraction)
	b.WriteString("  opcode mix:")
	for _, e := range r.OpMix {
		fmt.Fprintf(&b, " %s=%.1f%%", e.Class, 100*e.Fraction)
	}
	b.WriteByte('\n')
	return b.String()
}
