// The attack axis: every cell is driven through each adversarial
// scenario trace (pktgen.GenerateAttack) twice, once bare and once
// behind the overload guard. On top of the replay's per-packet contract
// — under which load shedding is graceful by construction: the guard
// sheds with its configured verdict, never an abort — estimator bounds
// must hold against the per-flow ADMITTED ground truth (packets that
// actually reached the NF), and the guard-on bound is never worse than
// guard-off.
//
// The axis is deterministic end to end: scenario traces are seeded and
// the guard's shed decisions derive from the virtual arrival clock and
// retired-instruction costs, so a failing cell replays bit-for-bit.

package difftest

import (
	"fmt"

	"enetstl/internal/guard"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// Row summarizes one replayed arm of the attack axis.
type Row struct {
	Case     string // NF/flavour
	Scenario string
	GuardOn  bool

	Packets  int
	Admitted uint64
	Shed     uint64
	Sampled  uint64 // head-sampled out while degraded
	WdTrips  uint64
	Degrades uint64 // transitions into degraded mode
	Bound    float64
}

// Sheds totals shed packets across guarded arms, per scenario ("" for
// all) — the evidence that overload protection actually engaged.
func (r *Report) Sheds(scenario string) uint64 {
	var n uint64
	for _, row := range r.Rows {
		if row.GuardOn && (scenario == "" || row.Scenario == scenario) {
			n += row.Shed
		}
	}
	return n
}

// scenarios lists the scenarios the rows cover, in first-seen order.
func (r *Report) scenarios() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Scenario] {
			seen[row.Scenario] = true
			out = append(out, row.Scenario)
		}
	}
	return out
}

// attackAxis walks every cell of every scenario in cfg.Scenarios — all
// of them by default.
func attackAxis(r *Report, cfg GridConfig) error {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = pktgen.Scenarios()
	}
	r.attack(Cells(cfg))
	return nil
}

// attack replays every cell bare and guarded. Each arm is a fresh build
// replaying its own trace clone, so the two never share state and see
// identical bytes.
func (r *Report) attack(cells []Cell) {
	for _, c := range cells {
		r.Cases++
		var bounds []float64 // bare, then guarded, when both evaluated one
		for _, guardOn := range []bool{false, true} {
			at := site{AxisAttack, c.String(), c.Scenario + "/bare"}
			if guardOn {
				at.variant = c.Scenario + "/guarded"
			}
			b, err := c.Build()
			if err != nil {
				r.violate(at, -1, "build", err.Error())
				continue
			}
			row := Row{Case: c.String(), Scenario: c.Scenario, GuardOn: guardOn, Packets: len(c.Trace.Packets)}
			inst := b.Inst
			var g *guard.Guard // nil on the bare arm
			if guardOn {
				a := nfcatalog.Attach(runtime.Options{Guard: nfcatalog.GuardPolicy()}, c.Name, b.Built)
				inst, g = a.Insts[0], a.Guards[0]
			}
			got := r.replay(at, inst, c.Trace.Clone())
			if bound, ok := r.check(at, b, c.Trace.FlowKeys, got.admitted); ok {
				row.Bound = bound
				bounds = append(bounds, bound)
			}
			if g != nil {
				row.Admitted = g.Admitted()
				row.Shed = g.Shed()
				row.Sampled = g.SampledOut()
				row.WdTrips = g.WatchdogTrips()
				row.Degrades = g.DegradeEnters()
			} else {
				for _, n := range got.admitted {
					row.Admitted += uint64(n)
				}
			}
			r.Rows = append(r.Rows, row)
		}
		// The guard must never loosen the pinned bound: shedding only
		// shrinks the admitted stream the bound is stated over.
		if len(bounds) == 2 && bounds[1] > bounds[0] {
			r.violate(site{AxisAttack, c.String(), c.Scenario + "/guarded"}, -1, "bound-compare",
				fmt.Sprintf("guard-on bound %.1f worse than guard-off %.1f", bounds[1], bounds[0]))
		}
	}
}
