package harness_test

// The chaos and attack tests drive those axes of the conformance grid
// (internal/difftest) end to end. They predate the grid and stay in this
// directory, as an external test package, under the test IDs they have
// always had.

import (
	"strings"
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/faultinject"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/telemetry"
)

func runAxis(t *testing.T, axis string, cfg nfcatalog.GridConfig) *difftest.Report {
	t.Helper()
	rep, err := difftest.Run(axis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosAllNFs replays every registered NF (all flavours) and the
// composed apps under the full schedule grid and requires a clean run:
// no panics, no errors, no XDP_ABORTED verdicts, balanced locks, and
// green data-structure invariants.
func TestChaosAllNFs(t *testing.T) {
	res := runAxis(t, difftest.AxisChaos, nfcatalog.GridConfig{Packets: 1500, FaultSeed: 0x9e3779b9})
	t.Logf("%s", res)
	if res.Failed() {
		t.Fatalf("chaos contract violated:\n%s", res)
	}
	if res.Injected == 0 {
		t.Fatal("chaos run injected no faults; schedules are not reaching the surfaces")
	}
	// Every failure surface must actually have been exercised.
	seen := map[string]uint64{}
	for _, c := range res.SiteCounts {
		seen[c.Site] = c.Injected
	}
	for _, site := range []string{
		faultinject.SiteMapUpdate, faultinject.SiteMapLookup,
		faultinject.SiteAlloc, faultinject.SiteKfunc, faultinject.SiteRefill,
	} {
		if seen[site] == 0 {
			t.Errorf("site %s: no faults injected across the grid", site)
		}
	}
}

// TestChaosDeterministic pins the replay guarantee: two runs with the
// same seed inject the identical fault counts.
func TestChaosDeterministic(t *testing.T) {
	run := func() *difftest.Report {
		return runAxis(t, difftest.AxisChaos, nfcatalog.GridConfig{Packets: 400, FaultSeed: 7})
	}
	a, b := run(), run()
	if a.Injected != b.Injected || a.Evaluated != b.Evaluated {
		t.Fatalf("not deterministic: %d/%d vs %d/%d injected/evaluated",
			a.Injected, a.Evaluated, b.Injected, b.Evaluated)
	}
	if len(a.SiteCounts) != len(b.SiteCounts) {
		t.Fatalf("site count mismatch: %v vs %v", a.SiteCounts, b.SiteCounts)
	}
	for i := range a.SiteCounts {
		if a.SiteCounts[i] != b.SiteCounts[i] {
			t.Fatalf("site %d differs: %+v vs %+v", i, a.SiteCounts[i], b.SiteCounts[i])
		}
	}
}

// TestChaosPublish checks that the injected-fault counters land in the
// metrics exposition.
func TestChaosPublish(t *testing.T) {
	// One schedule is enough to exercise the exposition path.
	res := runAxis(t, difftest.AxisChaos, nfcatalog.GridConfig{Packets: 300, FaultSeed: 11, Schedule: "mixed-storm"})
	reg := telemetry.NewRegistry()
	res.Publish(reg)
	text := reg.Text()
	for _, want := range []string{"fault_site_injected_total", "fault_site_evaluated_total", "chaos_violations_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s:\n%s", want, text)
		}
	}
}
