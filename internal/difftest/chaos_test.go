package difftest

// The chaos axis end to end beyond TestGrid's chaos row: the whole
// schedule grid under a second fault seed, and the replay guarantee that
// one seed injects the same faults.

import (
	"testing"

	"enetstl/internal/faultinject"
)

// TestChaosAllNFs replays every registered NF (all flavours) and the
// composed apps under the full schedule grid and requires a clean run:
// no panics, no errors, no XDP_ABORTED verdicts, balanced locks, and
// green data-structure invariants.
func TestChaosAllNFs(t *testing.T) {
	res := runAxis(t, AxisChaos, GridConfig{Packets: 1500, FaultSeed: 0x9e3779b9})
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
	run := func() *Report {
		return runAxis(t, AxisChaos, GridConfig{Packets: 400, FaultSeed: 7})
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
