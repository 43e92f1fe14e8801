package harness_test

import (
	"strings"
	"testing"

	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

// TestParallelRunTraced exercises concurrent event emission from RSS
// shards (run under `make race`): every shard's ring collects only the
// measured trials, verdict events account for every measured packet at
// full sample rate, and the merged stream is timestamp-ordered with
// conserved drop accounting.
func TestParallelRunTraced(t *testing.T) {
	tr := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 1200, ZipfS: 1.1, Seed: 9})
	nfcatalog.PrepareTrace("cuckooswitch", tr)
	const trials = 2
	for _, shards := range []int{1, 3} {
		sh := nfcatalog.NewSharded("cuckooswitch", nf.EBPF)
		res, err := harness.ParallelRunTraced(tr.Clone(), shards, sh.Build, trials,
			trace.Config{Capacity: 1 << 16, Seed: 5})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.TraceEmitted == 0 || len(res.Events) == 0 {
			t.Fatalf("shards=%d: no events recorded", shards)
		}
		if uint64(len(res.Events)) != res.TraceEmitted {
			t.Fatalf("shards=%d: drained %d events, emitted %d", shards, len(res.Events), res.TraceEmitted)
		}
		// At full sample rate with a ring larger than the event volume,
		// nothing drops and every measured packet gets a verdict event.
		if res.TraceDrops != 0 {
			t.Fatalf("shards=%d: %d drops on an oversized ring", shards, res.TraceDrops)
		}
		verdicts := 0
		seenShards := map[int32]bool{}
		for i, ev := range res.Events {
			if ev.Kind == trace.KindVerdict {
				verdicts++
			}
			seenShards[ev.Shard] = true
			if i > 0 && res.Events[i-1].TS > ev.TS {
				t.Fatalf("shards=%d: merged events out of timestamp order at %d", shards, i)
			}
		}
		if want := trials * len(tr.Packets); verdicts != want {
			t.Fatalf("shards=%d: %d verdict events, want %d (measured trials only)", shards, verdicts, want)
		}
		if len(seenShards) != shards {
			t.Fatalf("shards=%d: events from %d shards", shards, len(seenShards))
		}
	}
}

// TestParallelRunTracedSamplingDeterminism: same seed, same trace, same
// shard count ⇒ the same set of (shard, pkt) samples.
func TestParallelRunTracedSamplingDeterminism(t *testing.T) {
	tr := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 1500, ZipfS: 1.1, Seed: 3})
	nfcatalog.PrepareTrace("cuckooswitch", tr)
	sampledSet := func(seed uint64) map[[2]uint64]bool {
		sh := nfcatalog.NewSharded("cuckooswitch", nf.EBPF)
		res, err := harness.ParallelRunTraced(tr.Clone(), 2, sh.Build, 1,
			trace.Config{Capacity: 1 << 16, SampleRate: 0.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[[2]uint64]bool)
		for _, ev := range res.Events {
			if ev.Kind == trace.KindPacketIn {
				set[[2]uint64{uint64(ev.Shard), ev.Pkt}] = true
			}
		}
		return set
	}
	a, b := sampledSet(11), sampledSet(11)
	if len(a) == 0 {
		t.Fatal("rate-0.2 run sampled nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed sampled %d vs %d packets", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("same seed: sample sets differ at shard=%d pkt=%d", k[0], k[1])
		}
	}
	c := sampledSet(12)
	same := true
	for k := range a {
		if !c[k] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Fatal("different seeds produced identical sample sets")
	}
}

// TestProfileParallelShardInvariance: a sharded replay with a fresh
// Stats per shard, merged by ParallelRun, attributes the same work —
// instructions, opcode mix, per-callee call counts, packets — at any
// shard count, so a profile of res.Stats does not depend on it.
func TestProfileParallelShardInvariance(t *testing.T) {
	tr := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 1500, ZipfS: 1.1, Seed: 21})
	nfcatalog.PrepareTrace("cmsketch", tr)

	profiles := map[int]*harness.ProfileReport{}
	for _, shards := range []int{1, 2, 4} {
		sh := nfcatalog.NewSharded("cmsketch", nf.EBPF)
		var prog string
		build := func(s int, sub *pktgen.Trace) (nf.Instance, error) {
			inst, err := sh.Build(s, sub)
			if err != nil {
				return nil, err
			}
			runtime.AttachStats(inst)
			prog = inst.(*nf.VMInstance).Prog.Name()
			return inst, nil
		}
		res, err := harness.ParallelRun(tr.Clone(), shards, build, 1)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		ps, ok := res.Stats.ProgSnapshot(prog)
		if !ok {
			t.Fatalf("shards=%d: no stats recorded for %q", shards, prog)
		}
		profiles[shards] = harness.ReportFromProgStats(res.Name, res.Flavor, len(tr.Packets), ps)
	}
	ref := profiles[1]
	if ref.Insns == 0 || len(ref.Callees) == 0 {
		t.Fatalf("reference profile is empty: %+v", ref)
	}
	for _, shards := range []int{2, 4} {
		rep := profiles[shards]
		if rep.Packets != ref.Packets {
			t.Fatalf("shards=%d: %d packets, want %d", shards, rep.Packets, ref.Packets)
		}
		if rep.Insns != ref.Insns {
			t.Fatalf("shards=%d: %d insns, want %d", shards, rep.Insns, ref.Insns)
		}
		if len(rep.Callees) != len(ref.Callees) {
			t.Fatalf("shards=%d: %d callees, want %d", shards, len(rep.Callees), len(ref.Callees))
		}
		calls := func(r *harness.ProfileReport) map[string]uint64 {
			m := make(map[string]uint64)
			for _, c := range r.Callees {
				m[c.Kind+"/"+c.Name] = c.Calls
			}
			return m
		}
		refCalls, gotCalls := calls(ref), calls(rep)
		for name, n := range refCalls {
			if gotCalls[name] != n {
				t.Fatalf("shards=%d: callee %s has %d calls, want %d", shards, name, gotCalls[name], n)
			}
		}
		mix := func(r *harness.ProfileReport) map[string]uint64 {
			m := make(map[string]uint64)
			for _, e := range r.OpMix {
				m[e.Class] = e.Count
			}
			return m
		}
		refMix, gotMix := mix(ref), mix(rep)
		for class, n := range refMix {
			if gotMix[class] != n {
				t.Fatalf("shards=%d: op class %s count %d, want %d", shards, class, gotMix[class], n)
			}
		}
	}
}

// TestLatencyPublish: the Latency satellite — P50/P99 gauges and the
// native histogram series land in a registry with the right shapes.
func TestLatencyPublish(t *testing.T) {
	tr := pktgen.Generate(pktgen.Config{Flows: 32, Packets: 400, Seed: 2})
	nfcatalog.PrepareTrace("cmsketch", tr)
	inst, err := nfcatalog.Build("cmsketch", nf.EBPF, tr)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := harness.Latency(inst, tr)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Hist == nil {
		t.Fatal("LatencyResult.Hist is nil")
	}
	reg := telemetry.NewRegistry()
	lr.Publish(reg)
	text := reg.Text()
	for _, want := range []string{
		`nf_latency_ns_count{flavor="eBPF",nf="cmsketch"} 400`,
		`nf_latency_ns_bucket{flavor="eBPF",nf="cmsketch",le="+Inf"} 400`,
		`nf_latency_quantile_ns{flavor="eBPF",nf="cmsketch",quantile="p50"}`,
		`nf_latency_quantile_ns{flavor="eBPF",nf="cmsketch",quantile="p99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if lr.Dist.Count != 400 {
		t.Fatalf("Dist.Count = %d, want 400", lr.Dist.Count)
	}
}
