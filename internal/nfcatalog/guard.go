// The catalog's overload-guard policy: one uniform guard config, the
// per-NF opt-ins construct attaches to Built, and the shed-rate mark —
// defined once for `nfrun -guard`, the daemon and the attack axis of
// the conformance grid.

package nfcatalog

import (
	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// GuardPolicy returns the catalog's uniform guard policy — budgets
// calibrate per instance (AutoBudget), so one config fits a skiplist
// and a count-min sketch alike. Callers overlay runtime.Options
// guard/quota settings on top of it.
func GuardPolicy() guard.Config {
	return guard.Config{
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

// Guarded fronts the built instance with an enabled guard carrying the
// catalog's policy and the NF's wiring.
func (b Built) Guarded(name string) (*guard.Guarded, *guard.Guard) {
	g := guard.New(name, 0, GuardPolicy())
	b.WireGuard(g)
	return g.Wrap(b.Inst), g
}

// BuildGuarded constructs an NF instance behind the catalog's guard —
// the `nfrun -guard` entry point.
func BuildGuarded(name string, flavor nf.Flavor, trace *pktgen.Trace) (*guard.Guarded, *guard.Guard, error) {
	b, err := BuildFull(name, flavor, trace)
	if err != nil {
		return nil, nil, err
	}
	w, g := b.Guarded(name)
	return w, g, nil
}
