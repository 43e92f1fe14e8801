package harness_test

import (
	"strings"
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
)

// TestAttackAllNFs replays every registered NF (all flavours) under
// every adversarial scenario, bare and guarded, and requires a clean
// run: no panics, no errors, no XDP_ABORTED (shedding is graceful),
// balanced locks, green invariants, and estimator bounds that hold
// against the admitted substream — with the guard-on bound never looser
// than guard-off.
func TestAttackAllNFs(t *testing.T) {
	res := runAxis(t, difftest.AxisAttack, nfcatalog.GridConfig{Packets: 2000, Flows: 192})
	t.Logf("%s", res)
	if res.Failed() {
		t.Fatalf("attack contract violated:\n%s", res)
	}
	// Overload protection must actually have engaged, in every scenario —
	// a grid that never sheds proves nothing.
	for _, k := range pktgen.Scenarios() {
		if res.Sheds(k.String()) == 0 {
			t.Errorf("scenario %s: no packets shed across the grid", k)
		}
	}
}

// TestAttackDeterministic pins the replay guarantee: the same seed
// produces the identical shed/admit/degrade row set.
func TestAttackDeterministic(t *testing.T) {
	run := func() *difftest.Report {
		return runAxis(t, difftest.AxisAttack, nfcatalog.GridConfig{Packets: 800, Flows: 192,
			Scenarios: []pktgen.ScenarioKind{pktgen.ScenarioSYNFlood}})
	}
	a, b := run(), run()
	if a.Total != b.Total || len(a.Rows) != len(b.Rows) {
		t.Fatalf("not deterministic: %d/%d vs %d/%d violations/rows",
			a.Total, len(a.Rows), b.Total, len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d diverged across identical runs:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestAttackPublish smoke-checks the result export.
func TestAttackPublish(t *testing.T) {
	res := runAxis(t, difftest.AxisAttack, nfcatalog.GridConfig{Packets: 600, Flows: 192,
		Scenarios: []pktgen.ScenarioKind{pktgen.ScenarioChurn}})
	reg := telemetry.NewRegistry()
	res.Publish(reg)
	if !strings.Contains(reg.Text(), "attack_violations_total") {
		t.Fatal("attack_violations_total missing from rendered metrics")
	}
}
