package difftest

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// TestGrid is the grid's standing gate, one row per make target at the
// sizes that target runs: `make difftest` runs the two equivalence rows,
// `make chaos-smoke` and `make attack-smoke` the chaos and attack rows
// (go test -v -run '^TestGrid$/^<row>$' ./internal/difftest/). A row
// walks its axes in order and prints each axis's report on stdout; a
// failing axis prints `axis=<name> FAILED` ahead of its report, whose
// violation lines each name the case and the variant that diverged.
func TestGrid(t *testing.T) {
	for _, row := range []struct {
		name string
		axes []string
		cfg  GridConfig
	}{
		// Flavour against flavour, tier against tier, and 200 generated
		// programs against the reference interpreter.
		{"equivalence", []string{AxisFlavour, AxisTier, AxisVM}, GridConfig{Packets: 4000, Flows: 256, VMTrials: 200}},
		// Past the cuckoo filter's 4096 slots and the cuckoo switch's
		// 8192, so both preloads walk their kick chains and then
		// saturate, and every flavour must still agree.
		{"equivalence-9000-flows", []string{AxisFlavour}, GridConfig{Packets: 4000, Flows: 9000}},
		// 1500 packets is the smallest trace that exercises every fault
		// site (rpool refills happen once per ~4096 draws).
		{"chaos", []string{AxisChaos}, GridConfig{Packets: 1500, Flows: 256}},
		// Every NF/flavour under every scenario, guard off and on; 1500
		// packets keeps the shedder past its AutoBudget calibration
		// window inside every attack burst.
		{"attack", []string{AxisAttack}, GridConfig{Packets: 1500, Flows: 192}},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, axis := range row.axes {
				rep := runAxis(t, axis, row.cfg)
				if rep.Failed() {
					fmt.Printf("axis=%s FAILED\n", axis)
					t.Errorf("axis=%s: %d violations", axis, rep.Total)
				}
				fmt.Println(rep)
			}
		})
	}
}

// saboteur wraps a real instance and misbehaves on exactly one packet,
// the strikeAt-th it is handed, provided armed (when set) agrees.
type saboteur struct {
	nf.Instance
	seen   int
	armed  func() bool
	strike func(verdict uint64) (uint64, error) // may panic
}

const strikeAt = 7

func (s *saboteur) Process(pkt []byte) (uint64, error) {
	v, err := s.Instance.Process(pkt)
	s.seen++
	if s.seen-1 == strikeAt && (s.armed == nil || s.armed()) {
		return s.strike(v)
	}
	return v, err
}

// VM delegates so the grid still finds the machine behind a sabotaged
// VM flavour (the tier axis pins tiers on it).
func (s *saboteur) VM() *vm.VM {
	if vms := runtime.VMs(s.Instance); len(vms) > 0 {
		return vms[0]
	}
	return nil
}

// skipper hands the inner NF only every other packet while reporting a
// clean verdict for all of them, so the sketch behind it undercounts the
// ground truth the replay observed.
type skipper struct {
	nf.Instance
	seen int
}

func (s *skipper) Process(pkt []byte) (uint64, error) {
	s.seen++
	if s.seen%2 == 0 {
		return uint64(vm.XDPPass), nil
	}
	return s.Instance.Process(pkt)
}

// gridCells returns the cells of one NF with the Build of the cell in
// flavour fl rewired through wrap.
func gridCells(t *testing.T, name string, fl nf.Flavor, wrap func(*Built)) []Cell {
	t.Helper()
	var out []Cell
	hit := false
	for _, c := range Cells(GridConfig{Packets: 400}) {
		if c.Name != name {
			continue
		}
		if c.Flavor == fl {
			hit = true
			build := c.Build
			c.Build = func() (Built, error) {
				b, err := build()
				if err == nil {
					wrap(&b)
				}
				return b, err
			}
		}
		out = append(out, c)
	}
	if !hit {
		t.Fatalf("no %s/%v cell in the grid", name, fl)
	}
	return out
}

func only(cells []Cell, fl nf.Flavor) []Cell {
	for _, c := range cells {
		if c.Flavor == fl {
			return []Cell{c}
		}
	}
	return nil
}

// TestGridNegativeControls shows every gate of the grid can fail: a real
// cell is sabotaged in one way and walked by the real axis loop, which
// must report exactly one violation, on the right axis, of the right
// kind, against the right variant.
func TestGridNegativeControls(t *testing.T) {
	strikeWith := func(strike func(uint64) (uint64, error)) func(*Built) {
		return func(b *Built) { b.Inst = &saboteur{Instance: b.Inst, strike: strike} }
	}
	flip := func(v uint64) (uint64, error) { return v + 1, nil }
	for _, tc := range []struct {
		name                string
		axis, kind, variant string
		packet              int
		walk                func(r *Report)
	}{
		{"panics", AxisChaos, "panic", "baseline", strikeAt, func(r *Report) {
			cells := gridCells(t, "cuckooswitch", nf.Kernel, strikeWith(func(uint64) (uint64, error) { panic("boom") }))
			r.chaos(only(cells, nf.Kernel), Schedules(), 1)
		}},
		{"returns an error", AxisFlavour, "error", "Kernel", strikeAt, func(r *Report) {
			cells := gridCells(t, "cuckooswitch", nf.Kernel, strikeWith(func(uint64) (uint64, error) { return 0, errors.New("boom") }))
			r.flavours(only(cells, nf.Kernel))
		}},
		{"returns XDP_ABORTED", AxisChaos, "verdict", "baseline", strikeAt, func(r *Report) {
			cells := gridCells(t, "cuckooswitch", nf.EBPF, strikeWith(func(uint64) (uint64, error) { return uint64(vm.XDPAborted), nil }))
			r.chaos(only(cells, nf.EBPF), Schedules(), 1)
		}},
		{"broken Check", AxisFlavour, "invariant", "Kernel", -1, func(r *Report) {
			cells := gridCells(t, "timewheel", nf.Kernel, func(b *Built) {
				b.Check = func() error { return errors.New("wheel slot out of order") }
			})
			r.flavours(only(cells, nf.Kernel))
		}},
		{"estimator outside Bound", AxisFlavour, "bound", "Kernel", -1, func(r *Report) {
			cells := gridCells(t, "cmsketch", nf.Kernel, func(b *Built) { b.Inst = &skipper{Instance: b.Inst} })
			r.flavours(only(cells, nf.Kernel))
		}},
		{"verdict flipped on one tier", AxisTier, "verdict", "wire", strikeAt, func(r *Report) {
			cells := gridCells(t, "cuckooswitch", nf.EBPF, func(b *Built) {
				m := runtime.VMs(b.Inst)[0]
				b.Inst = &saboteur{Instance: b.Inst, strike: flip, armed: func() bool { return m.Tier() == vm.TierWire }}
			})
			r.tiers(only(cells, nf.EBPF))
		}},
		{"verdict flipped on one flavour", AxisFlavour, "verdict", "eBPF", strikeAt, func(r *Report) {
			r.flavours(gridCells(t, "cuckooswitch", nf.EBPF, strikeWith(flip)))
		}},
		{"estimator diverged on one flavour", AxisFlavour, "estimate", "eNetSTL", -1, func(r *Report) {
			r.flavours(gridCells(t, "spacesaving", nf.ENetSTL, func(b *Built) {
				est := b.Est
				b.Est = func(key []byte) uint32 { return est(key) + 1 }
			}))
		}},
		{"guard loosens the bound", AxisAttack, "bound-compare", "syn-flood/guarded", -1, func(r *Report) {
			cells := Cells(GridConfig{Packets: 400, Flows: 192,
				Scenarios: []pktgen.ScenarioKind{pktgen.ScenarioSYNFlood}})
			for _, c := range cells {
				if c.String() != "cmsketch/Kernel" {
					continue
				}
				build, builds := c.Build, 0
				c.Build = func() (Built, error) {
					b, err := build()
					builds++
					if bound := b.Bound; builds == 2 { // the guarded arm
						b.Bound = func(k [][nf.KeyLen]byte, n []uint32) (float64, error) {
							v, err := bound(k, n)
							return v + 1000, err
						}
					}
					return b, err
				}
				r.attack([]Cell{c})
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &Report{Axis: tc.axis}
			tc.walk(r)
			if r.Total != 1 || len(r.Violations) != 1 {
				t.Fatalf("want exactly one violation, got %d:\n%s", r.Total, r)
			}
			v := r.Violations[0]
			if v.Axis != tc.axis || v.Kind != tc.kind || v.Variant != tc.variant || v.Packet != tc.packet {
				t.Fatalf("violation %q\nwant axis=%s kind=%s variant=%s pkt=%d", v, tc.axis, tc.kind, tc.variant, tc.packet)
			}
			if !r.Failed() {
				t.Fatal("a report with a violation does not fail")
			}
		})
	}
}

// TestGridCoverage pins what each axis visits: exactly the catalog's
// Names() × SupportedFlavors — 43 cells — grouped, filtered or
// multiplied the way that axis says, every replay run to the end.
func TestGridCoverage(t *testing.T) {
	const packets = 64
	var cells, vmCells []string
	for _, name := range nfcatalog.Names() {
		for _, fl := range SupportedFlavors(name) {
			cells = append(cells, fmt.Sprintf("%s/%v", name, fl))
			if fl != nf.Kernel {
				vmCells = append(vmCells, cells[len(cells)-1])
			}
		}
	}
	if len(cells) != 43 || len(vmCells) != 28 {
		t.Fatalf("catalog has %d cells, %d VM-backed; this test pins 43 and 28", len(cells), len(vmCells))
	}
	const apps = 4 * 2 // composed apps × versions
	schedules, scenarios := len(Schedules()), len(pktgen.Scenarios())
	var rep *Report
	for _, tc := range []struct {
		axis           string
		cases, replays int
	}{
		{AxisFlavour, len(nfcatalog.Names()), len(cells)},
		{AxisTier, len(vmCells), len(vmCells) * len(tiers)},
		{AxisChaos, len(cells) + apps, (len(cells) + apps) * schedules},
		{AxisAttack, len(cells) * scenarios, len(cells) * scenarios * 2},
	} {
		rep = runAxis(t, tc.axis, GridConfig{Packets: packets, Flows: 32})
		if rep.Cases != tc.cases || rep.Replays != tc.replays || rep.Packets != tc.replays*packets {
			t.Errorf("%s: %d cases, %d replays, %d packets; want %d, %d, %d",
				tc.axis, rep.Cases, rep.Replays, rep.Packets, tc.cases, tc.replays, tc.replays*packets)
		}
	}
	if len(cells)+apps != 51 || len(cells)*scenarios != 129 {
		t.Errorf("chaos walks %d cases and attack %d cells; DESIGN.md says 51 and 129", len(cells)+apps, len(cells)*scenarios)
	}

	// The attack rows (the last report) name every arm replayed: each
	// cell under each scenario, bare and guarded.
	var got, want []string
	for _, row := range rep.Rows {
		got = append(got, fmt.Sprintf("%s %s %v", row.Case, row.Scenario, row.GuardOn))
	}
	for _, c := range cells {
		for _, k := range pktgen.Scenarios() {
			want = append(want, fmt.Sprintf("%s %s false", c, k), fmt.Sprintf("%s %s true", c, k))
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("attack rows cover\n%v\nwant\n%v", got, want)
	}
}

// TestRunRejectsUnknownSelections: a typo in an axis or schedule name is
// an error, not a grid that ran nothing and passed.
func TestRunRejectsUnknownSelections(t *testing.T) {
	if _, err := Run("flavor", GridConfig{}); err == nil {
		t.Error("unknown axis accepted")
	}
	if _, err := Run(AxisChaos, GridConfig{Schedule: "map-fulll"}); err == nil {
		t.Error("unknown fault schedule accepted")
	}
}
