package difftest

import (
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
)

func runAxis(t *testing.T, axis string, cfg nfcatalog.GridConfig) *Report {
	t.Helper()
	rep, err := Run(axis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFlavourEquivalence is the standing conformance gate: every
// registered NF, in every flavour pair, over seeded identical traces.
func TestFlavourEquivalence(t *testing.T) {
	rep := runAxis(t, AxisFlavour, nfcatalog.GridConfig{})
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("flavour divergences:\n%s", rep)
	}
	if rep.Cases != len(nfcatalog.Names()) {
		t.Fatalf("covered %d cases, want %d (every registered NF)", rep.Cases, len(nfcatalog.Names()))
	}
	// 15 NFs × 3 flavours, minus skiplist/eBPF and conntrack/eNetSTL.
	want := 0
	for _, name := range nfcatalog.Names() {
		want += len(nfcatalog.SupportedFlavors(name))
	}
	if rep.Replays != want {
		t.Fatalf("replayed %d instances, want %d", rep.Replays, want)
	}
	if rep.Probes == 0 {
		t.Fatal("no estimator/metamorphic probes ran — oracle wiring is dead")
	}
}

// TestFlavourEquivalenceSeeds replays the equivalence suite under a few
// alternate trace seeds and skews, so the contract is not an artifact
// of one stream.
func TestFlavourEquivalenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is slow")
	}
	for _, cfg := range []nfcatalog.GridConfig{
		{Seed: 7, ZipfS: 1.3},
		{Seed: 99, ZipfS: 0.000001, Packets: 2000}, // effectively uniform
	} {
		if rep := runAxis(t, AxisFlavour, cfg); rep.Failed() {
			t.Fatalf("seed %d: divergences:\n%s", cfg.Seed, rep)
		}
	}
}

// TestInterpEquivalence is the interpreter-tier conformance gate: every
// VM-backed NF×flavour built under the predecoded, wire, and jit tiers,
// replayed on bit-identical traces, exact agreement demanded throughout
// (see tierAxis for why exactness is the right oracle even for the
// sampling sketches).
func TestInterpEquivalence(t *testing.T) {
	rep := runAxis(t, AxisTier, nfcatalog.GridConfig{})
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("interp divergences:\n%s", rep)
	}
	want := 0
	for _, name := range nfcatalog.Names() {
		for _, fl := range nfcatalog.SupportedFlavors(name) {
			if fl != nf.Kernel {
				want++
			}
		}
	}
	if rep.Cases != want {
		t.Fatalf("covered %d NF×flavour cases, want %d", rep.Cases, want)
	}
	if rep.Replays != 3*want {
		t.Fatalf("replayed %d instances, want %d (each case under all three tiers)", rep.Replays, 3*want)
	}
	if rep.Probes == 0 {
		t.Fatal("no estimator probes ran — estimator exactness wiring is dead")
	}
}

// TestInterpEquivalenceSeeds re-runs the tier differential under an
// alternate seed and skew so agreement is not an artifact of one
// stream's collision pattern.
func TestInterpEquivalenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is slow")
	}
	if rep := runAxis(t, AxisTier, nfcatalog.GridConfig{Seed: 7, ZipfS: 1.3, Packets: 2000}); rep.Failed() {
		t.Fatalf("seed 7: interp divergences:\n%s", rep)
	}
}
