// The catalog's overload-guard policy: one uniform guard config, the
// per-NF opt-ins construct attaches to Built, and the shed-rate mark —
// defined once for `nfrun -guard`, the daemon and the attack axis of
// the conformance grid.

package nfcatalog

import (
	"enetstl/internal/guard"
	"enetstl/internal/runtime"
)

// GuardPolicy returns the catalog's uniform guard policy as the
// Options field Attach reads — budgets calibrate per instance
// (AutoBudget), so one config fits a skiplist and a count-min sketch
// alike.
func GuardPolicy() *runtime.GuardOptions {
	return &runtime.GuardOptions{
		Enabled:        true,
		WatchdogFactor: 16,
	}
}

// addShedRateMark registers the guard's self-referential pressure
// probe: the fraction of arriving packets the shedder rejected over the
// last probe interval. Persistent shedding engages degradation (head
// sampling, batch eviction) so the NF trades fidelity for serving more
// of the stream instead of hard-dropping everything.
func addShedRateMark(g *guard.Guard) {
	var prevShed, prevSeen uint64
	g.AddWatermark(guard.Watermark{
		Name: "shed-rate", High: 0.5, Low: 0.1,
		Frac: func() float64 {
			shed, seen := g.Shed(), g.Shed()+g.Admitted()
			ds, dn := shed-prevShed, seen-prevSeen
			prevShed, prevSeen = shed, seen
			if dn == 0 {
				return 0
			}
			return float64(ds) / float64(dn)
		},
	})
}

// WireGuard applies the NF's bespoke guard opt-ins (degradation policy,
// watermark probes) plus the catalog's shed-rate mark to g.
func (b Built) WireGuard(g *guard.Guard) {
	if b.GuardWire != nil {
		b.GuardWire(g)
	}
	addShedRateMark(g)
}
