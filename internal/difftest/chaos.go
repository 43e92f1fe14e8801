// The chaos axis: every cell, plus the composed apps, is driven through
// its trace under a grid of fault schedules. The per-packet contract is
// the replay's; after each schedule the NF's data-structure invariants
// must still hold. There is no estimator ground truth here — an injected
// fault legitimately drops an update.

package difftest

import (
	"fmt"
	"slices"
	"sort"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/faultinject"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/runtime"
)

// Schedule is one point of the chaos axis: a named arming of the fault
// plane. Sites it does not arm stay quiet.
type Schedule struct {
	Name string
	Arm  func(p *faultinject.Plane)
}

// Schedules returns the standard schedule grid. "baseline" runs with
// the plane disarmed, pinning the contract in the absence of faults; the
// others each exercise one failure surface; "mixed-storm" arms
// everything at once at lower intensity.
func Schedules() []Schedule {
	return []Schedule{
		{Name: "baseline", Arm: func(p *faultinject.Plane) {}},
		{Name: "map-full", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteMapUpdate, faultinject.Schedule{EveryNth: 3})
		}},
		{Name: "lookup-miss", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteMapLookup, faultinject.Schedule{Prob: 0.05})
		}},
		{Name: "alloc-null", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteAlloc, faultinject.Schedule{EveryNth: 5})
			// Refills are already rare (a pool refills once every few
			// thousand draws), so every one in the window fails.
			p.Arm(faultinject.SiteRefill, faultinject.Schedule{EveryNth: 1})
		}},
		{Name: "kfunc-fault", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteKfunc, faultinject.Schedule{Prob: 0.02})
		}},
		{Name: "mixed-storm", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteMapUpdate, faultinject.Schedule{Prob: 0.02})
			p.Arm(faultinject.SiteMapLookup, faultinject.Schedule{Prob: 0.02})
			p.Arm(faultinject.SiteAlloc, faultinject.Schedule{Prob: 0.02})
			p.Arm(faultinject.SiteRefill, faultinject.Schedule{EveryNth: 1})
			p.Arm(faultinject.SiteKfunc, faultinject.Schedule{Prob: 0.01})
		}},
	}
}

// surfaces routes an instance's generic VM fault surfaces to the sites
// of whichever plane is current. The hooks are installed once and read
// the site pointers on every call; each schedule swaps in its plane's.
type surfaces struct{ upd, lkp, alloc, kf *faultinject.Site }

// wire installs the hooks on every machine behind inst: map updates and
// lookups through a Faulty wrapper, node allocation, and kfunc returns.
// NF-specific native hooks are Built.Arm's business.
func (s *surfaces) wire(inst nf.Instance) {
	for _, m := range runtime.VMs(inst) {
		m.WrapMaps(func(mm maps.ArenaMap) maps.ArenaMap {
			return &maps.Faulty{
				M:          mm,
				FailUpdate: func() bool { return s.upd.Fire() },
				MissLookup: func() bool { return s.lkp.Fire() },
			}
		})
		m.SetAllocFault(func() bool { return s.alloc.Fire() })
		m.SetKfuncFault(func(k *vm.Kfunc) (uint64, bool) {
			// Allocation-like acquire kfuncs draw from the alloc site so
			// "alloc-null" covers node_alloc/proxy_root on the bytecode
			// flavours too.
			site := s.kf
			if k.Meta.Acquire && k.Meta.Ret == vm.RetMem {
				site = s.alloc
			}
			if !site.Fire() {
				return 0, false
			}
			switch k.Meta.Ret {
			case vm.RetMem, vm.RetHandle:
				return 0, true // NULL
			default:
				return ^uint64(0), true // -1, the kfunc error value
			}
		})
	}
}

func (s *surfaces) point(p *faultinject.Plane) {
	s.upd = p.Site(faultinject.SiteMapUpdate)
	s.lkp = p.Site(faultinject.SiteMapLookup)
	s.alloc = p.Site(faultinject.SiteAlloc)
	s.kf = p.Site(faultinject.SiteKfunc)
}

// chaosAxis walks every cell and the composed apps under every
// schedule, or the one cfg.Schedule names.
func chaosAxis(r *Report, cfg nfcatalog.GridConfig) error {
	schedules := Schedules()
	if cfg.Schedule != "" {
		i := slices.IndexFunc(schedules, func(s Schedule) bool { return s.Name == cfg.Schedule })
		if i < 0 {
			return fmt.Errorf("difftest: unknown fault schedule %q", cfg.Schedule)
		}
		schedules = schedules[i : i+1]
	}
	cfg.Apps = true
	r.chaos(nfcatalog.Cells(cfg), schedules, cfg.FaultSeed)
	return nil
}

// chaos replays every cell under every schedule. One instance and one
// trace clone serve all of a cell's schedules in turn, so state a fault
// left behind is carried into the next schedule. seed feeds the
// deterministic fault streams: a failing run replays bit-for-bit.
func (r *Report) chaos(cells []nfcatalog.Cell, schedules []Schedule, seed uint64) {
	agg := map[string]*faultinject.SiteCount{}
	for _, c := range cells {
		r.Cases++
		b, err := c.Build()
		if err != nil {
			r.violate(site{AxisChaos, c.String(), "build"}, -1, "build", err.Error())
			continue
		}
		var s surfaces
		s.wire(b.Inst)
		tr := c.Trace.Clone()
		for _, sch := range schedules {
			at := site{AxisChaos, c.String(), sch.Name}
			plane := faultinject.New(seed)
			s.point(plane)
			sch.Arm(plane)
			if b.Arm != nil {
				b.Arm(plane)
			}
			r.replay(at, b.Inst, tr)
			r.check(at, b, nil, nil)

			plane.DisarmAll()
			for _, sc := range plane.Counts() {
				a := agg[sc.Site]
				if a == nil {
					a = &faultinject.SiteCount{Site: sc.Site}
					agg[sc.Site] = a
				}
				a.Evaluated += sc.Evaluated
				a.Injected += sc.Injected
			}
		}
	}
	for _, a := range agg {
		r.SiteCounts = append(r.SiteCounts, *a)
		r.Evaluated += a.Evaluated
		r.Injected += a.Injected
	}
	sort.Slice(r.SiteCounts, func(i, j int) bool { return r.SiteCounts[i].Site < r.SiteCounts[j].Site })
}
