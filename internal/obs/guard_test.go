package obs_test

// /metrics smoke for the overload-guard plane: per-shard guards publish
// into one registry and their nf_guard_* series must appear with shard
// labels and merge (sum) across shards on the scraped exposition.

import (
	"strconv"
	"strings"
	"testing"

	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/obs"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
)

func TestMetricsGuardSeries(t *testing.T) {
	// Sized so the flood sheds whatever flows the generator draws. The
	// 800 packets ahead of the first window calibrate both shards'
	// guards (128 admitted each) with room to spare. A window is 800
	// packets on 100 ticks; cmsketch costs the same for every packet, so
	// a tick refills two packets' worth of budget and the bucket holds
	// 64. The busier shard takes at least four packets a tick and is
	// empty, hence shedding, within 32 ticks. (At 1200 packets a window
	// was 30 ticks, and shed only when one shard happened to be well
	// ahead of the other.)
	tr := pktgen.GenerateAttack(pktgen.AttackConfig{
		Base: pktgen.Config{Flows: 128, Packets: 4000, ZipfS: 1.1, Seed: 5},
		Kind: pktgen.ScenarioSYNFlood,
	})
	nfcatalog.PrepareTrace("cmsketch", tr)
	shards := tr.Shard(2)

	srv := obs.New()
	var guards []*guard.Guard
	var total uint64
	for s, sh := range shards {
		inst, err := nfcatalog.Build("cmsketch", nf.EBPF, sh)
		if err != nil {
			t.Fatal(err)
		}
		g := guard.New("cmsketch", s, guard.Config{Enabled: true})
		w := g.Wrap(inst)
		for i := range sh.Packets {
			if _, _, err := w.ProcessAt(sh.Packets[i][:], sh.ArrivalOf(i)); err != nil {
				t.Fatalf("shard %d packet %d: %v", s, i, err)
			}
		}
		g.Publish(srv.Registry())
		guards = append(guards, g)
		total += g.Admitted() + g.Shed() + g.SampledOut()
	}
	if total != uint64(len(tr.Packets)) {
		t.Fatalf("guards accounted %d packets, trace has %d", total, len(tr.Packets))
	}

	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	metrics := get(t, "http://"+addr+"/metrics")

	// Every guard series renders, labeled per shard.
	for _, want := range []string{
		"nf_guard_admitted_total", "nf_guard_shed_total", "nf_guard_degraded_total",
		"nf_guard_watchdog_trips_total", "nf_guard_shed_enters_total",
		"nf_guard_degrade_enters_total", "nf_guard_budget_insns",
		`nf="cmsketch",shard="0"`, `nf="cmsketch",shard="1"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Cross-shard merge: summing a second registry holding both shards'
	// series must equal the per-guard counter totals.
	merged := telemetry.NewRegistry()
	for _, g := range guards {
		g.Publish(merged)
	}
	var wantShed uint64
	for _, g := range guards {
		wantShed += g.Shed()
	}
	var gotShed float64
	for _, line := range strings.Split(merged.Text(), "\n") {
		if strings.HasPrefix(line, "nf_guard_shed_total{") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			gotShed += v
		}
	}
	if uint64(gotShed) != wantShed {
		t.Fatalf("merged shed series sum %v, guards report %d", gotShed, wantShed)
	}
	if wantShed == 0 {
		t.Fatal("no shedding under the flood scenario; the series are vacuous")
	}
}
