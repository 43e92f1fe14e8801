// The grid's one enumerator and its per-NF table. Every axis — flavour
// against flavour, tier against tier, fault schedules, attack scenarios
// bare and guarded — walks the cells listed here, so "every NF in every
// flavour it supports" is decided in one place and a new axis is a loop
// over Cells, not another case builder. What the grid holds an NF to
// beyond the per-packet contract (its structural invariants, its
// estimator's error bound, its own fault hooks) is stated here too,
// reached through the one handle nfcatalog.Built carries to the NF
// behind the instance.

package difftest

import (
	"fmt"

	"enetstl/internal/apps"
	"enetstl/internal/faultinject"
	"enetstl/internal/nf"
	"enetstl/internal/nf/cmsketch"
	"enetstl/internal/nf/conntrack"
	"enetstl/internal/nf/heavykeeper"
	"enetstl/internal/nf/nitrosketch"
	"enetstl/internal/nf/skiplist"
	"enetstl/internal/nf/spacesaving"
	"enetstl/internal/nf/timewheel"
	"enetstl/internal/nf/vbf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
)

var flavors = []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL}

// SupportedFlavors lists the flavours an NF name can be built in; none
// for a name that is not registered.
func SupportedFlavors(name string) []nf.Flavor {
	out := make([]nf.Flavor, 0, len(flavors))
	for _, fl := range flavors {
		if nfcatalog.Supports(name, fl) {
			out = append(out, fl)
		}
	}
	return out
}

// GridConfig describes one conformance-grid run. Cells reads the trace
// shape, Apps and Scenarios; the remaining fields select within an axis
// and are read by the axis runners. The zero value is the standing
// gate: 4000 benign packets over 256 zipf(1.1) flows, seed 1, every
// schedule, every scenario.
type GridConfig struct {
	Packets int     // trace length (default 4000)
	Flows   int     // distinct benign flows (default 256)
	Seed    int64   // trace seed (default 1)
	ZipfS   float64 // flow skew (default 1.1)

	// Apps adds the composed applications, in both their versions, after
	// the NFs.
	Apps bool
	// Scenarios gives every NF×flavour one cell per adversarial trace
	// generator instead of the single benign-trace cell.
	Scenarios []pktgen.ScenarioKind

	// Schedule restricts the chaos axis to one fault schedule by name
	// ("" runs them all); FaultSeed seeds its fault plane, so a failing
	// run replays bit-for-bit.
	Schedule  string
	FaultSeed uint64
	// VMTrials is the number of generated programs the vm axis
	// cross-checks against the reference interpreter (default 200).
	VMTrials int
}

// norm fills the defaults.
func (c GridConfig) norm() GridConfig {
	if c.Packets <= 0 {
		c.Packets = 4000
	}
	if c.Flows <= 0 {
		c.Flows = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.VMTrials <= 0 {
		c.VMTrials = 200
	}
	return c
}

// Built is one cell's instance with what the grid holds it to: the
// catalog's build, its structural invariant check, the error bound of
// its estimator, and the NF's own fault hooks. Each is nil where the NF
// has none.
type Built struct {
	nfcatalog.Built
	Check func() error
	// Bound is the oracle for Est (bound.go).
	Bound Bound
	// Arm wires the NF's native fault hooks to plane p's sites; the
	// generic VM surfaces are the chaos axis's own (chaos.go).
	Arm func(p *faultinject.Plane)
}

// oracles adds the grid's per-NF table to a catalog build.
func oracles(b nfcatalog.Built) Built {
	g := Built{Built: b}
	switch n := b.NF.(type) {
	case *skiplist.SkipList:
		g.Check = func() error {
			if pr := n.Proxy(); pr != nil {
				return pr.CheckInvariants()
			}
			return nil
		}
		g.Arm = func(p *faultinject.Plane) {
			if pr := n.Proxy(); pr != nil {
				pr.FailAlloc = p.Site(faultinject.SiteAlloc).Fire
			}
		}
	case *timewheel.Wheel:
		g.Check = n.CheckInvariants
	case *cmsketch.Sketch:
		g.Bound = countMinBound(n.Estimate)
	case *nitrosketch.Sketch:
		g.Bound = nitroBound(n.Estimate)
		g.Arm = func(p *faultinject.Plane) {
			if pool := n.GeoPool(); pool != nil {
				pool.FailRefill = p.Site(faultinject.SiteRefill).Fire
			}
		}
	case *heavykeeper.Sketch:
		g.Bound = heavyKeeperBound(n.Estimate)
		g.Arm = func(p *faultinject.Plane) {
			if pool := n.Pool(); pool != nil {
				pool.FailRefill = p.Site(faultinject.SiteRefill).Fire
			}
		}
	case *spacesaving.Summary:
		g.Bound = spaceSavingBound(n.Estimate)
	case *vbf.VBF:
		g.Bound = vbfBound(n.Query)
	case *conntrack.Tracker:
		g.Arm = func(p *faultinject.Plane) {
			// Kernel flavour: decorate the backing map directly (the EBPF
			// flavour's map is wrapped generically through the VM).
			if m := n.Map(); m != nil {
				if f, ok := m.(*faultyMap); ok {
					m = f.ArenaMap
				}
				n.SetMap(&faultyMap{ArenaMap: m,
					failUpdate: p.Site(faultinject.SiteMapUpdate).Fire,
					missLookup: p.Site(faultinject.SiteMapLookup).Fire,
				})
			}
		}
	}
	return g
}

// Cell is one point of the grid: an NF (or composed app) in one flavour
// over one trace.
type Cell struct {
	Name     string
	Flavor   nf.Flavor
	Scenario string // generator behind Trace; "" for the benign one
	// Trace is the cell's canonical packet stream with the NF's op mix
	// applied. The cells of one name share it: replay a Clone (NFs may
	// write into packet payloads), never the trace itself.
	Trace *pktgen.Trace
	// Build constructs a fresh instance with its full wiring, tables
	// preloaded from Trace's flow table. It leaves Trace's bytes as they
	// are, so every call — another arm, another tier — starts from the
	// same state.
	Build func() (Built, error)
}

func (c Cell) String() string { return fmt.Sprintf("%s/%v", c.Name, c.Flavor) }

// Cells enumerates the grid: every registered NF in every flavour it
// supports — then, with cfg.Apps, every composed app in both versions —
// each over the benign trace or, with cfg.Scenarios, once per
// adversarial trace. Flavours of one name are adjacent, Kernel first.
// Nothing is constructed until a cell's Build is called, so a
// construction failure is the caller's to report against that cell.
func Cells(cfg GridConfig) []Cell {
	cfg = cfg.norm()
	base := pktgen.Config{Flows: cfg.Flows, Packets: cfg.Packets, ZipfS: cfg.ZipfS, Seed: cfg.Seed}
	var cells []Cell
	// add appends name's cells. Each trace is generated per name because
	// PrepareTrace rewrites it with that NF's op mix.
	add := func(name string, in []nf.Flavor, build func(nf.Flavor, *pktgen.Trace) (Built, error)) {
		var traces []*pktgen.Trace
		for _, kind := range cfg.Scenarios {
			traces = append(traces, pktgen.GenerateAttack(pktgen.AttackConfig{Base: base, Kind: kind}))
		}
		if traces == nil {
			traces = append(traces, pktgen.Generate(base))
		}
		for _, tr := range traces {
			nfcatalog.PrepareTrace(name, tr)
		}
		for _, fl := range in {
			for _, tr := range traces {
				cells = append(cells, Cell{Name: name, Flavor: fl, Scenario: tr.Scenario, Trace: tr,
					Build: func() (Built, error) { return build(fl, tr) }})
			}
		}
	}
	for _, name := range nfcatalog.Names() {
		add(name, SupportedFlavors(name), func(fl nf.Flavor, tr *pktgen.Trace) (Built, error) {
			// BuildFull re-applies the op mix, which rewrites the
			// trace's bytes with what they already are.
			b, err := nfcatalog.BuildFull(name, fl, tr)
			return oracles(b), err
		})
	}
	if cfg.Apps {
		for _, app := range []struct {
			name string
			make func(enetstl bool, keys [][nf.KeyLen]byte) (*apps.App, error)
		}{
			{"katran", apps.NewKatran},
			{"rakelimit", func(e bool, _ [][nf.KeyLen]byte) (*apps.App, error) { return apps.NewRakeLimit(e) }},
			{"polycube", apps.NewPolycube},
			{"sketchsuite", func(e bool, _ [][nf.KeyLen]byte) (*apps.App, error) { return apps.NewSketchSuite(e) }},
		} {
			add(app.name, []nf.Flavor{nf.EBPF, nf.ENetSTL}, func(fl nf.Flavor, tr *pktgen.Trace) (Built, error) {
				a, err := app.make(fl == nf.ENetSTL, tr.FlowKeys)
				if err != nil {
					return Built{}, err
				}
				return Built{Built: nfcatalog.Built{Inst: a}}, nil
			})
		}
	}
	return cells
}
