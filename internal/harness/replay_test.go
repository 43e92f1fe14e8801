package harness_test

import (
	"strings"
	"testing"

	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// TestProfileAttribution is nfrun -profile's path: Attach with stats on,
// one ReplayBatch, then Reports. The table names the NF and flavour,
// counts only the replay's packets, and attributes the helper and kfunc
// calls row by row.
func TestProfileAttribution(t *testing.T) {
	inst := harness.ProfInstance(t)
	// A run before Attach (an NF constructor's preload, say) must not be
	// counted: Attach hands out a fresh Stats.
	if _, err := inst.Process(make([]byte, nf.PktSize)); err != nil {
		t.Fatal(err)
	}
	a := nfcatalog.Attach(runtime.Options{Stats: true}, "prof", nfcatalog.Built{Inst: inst})
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 100, Seed: 5})
	if _, _, err := harness.ReplayBatch(a.Insts[0], trace, 0); err != nil {
		t.Fatal(err)
	}
	reps := harness.Reports(a.Stats, inst.Flavor().String())
	if len(reps) != 1 {
		t.Fatalf("%d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Name != "prof" || rep.Flavor != "eNetSTL" || rep.Packets != 100 || rep.Insns != 400 {
		t.Fatalf("report totals: %+v", rep)
	}
	byName := map[string]harness.Callee{}
	for _, c := range rep.Callees {
		byName[c.Name] = c
	}
	if c := byName["ktime_get_ns"]; c.Kind != "helper" || c.Calls != 100 {
		t.Fatalf("helper row: %+v", c)
	}
	if c := byName["test_touch"]; c.Kind != "kfunc" || c.Calls != 100 {
		t.Fatalf("kfunc row: %+v", c)
	}
	var frac float64
	for _, c := range rep.Callees {
		frac += c.Fraction
	}
	frac += rep.InterpFraction
	if frac < 0.5 || frac > 1.01 {
		t.Fatalf("fractions sum to %.2f", frac)
	}
	s := rep.String()
	if !strings.HasPrefix(s, "prof/eNetSTL: 100 packets, 400 insns,") ||
		!strings.Contains(s, "test_touch") || !strings.Contains(s, "opcode mix:") {
		t.Fatalf("report rendering:\n%s", s)
	}
}

// TestProfileNative: a Kernel-flavour instance has no VM to count on,
// so Attach meters it into the same Stats, and its report carries the
// packets and run time with no instructions or callees — and renders
// no interpreter row or opcode mix.
func TestProfileNative(t *testing.T) {
	inst := &nf.NativeInstance{NFName: "native", Fn: func([]byte) uint64 { return 2 }}
	a := nfcatalog.Attach(runtime.Options{Stats: true}, "native", nfcatalog.Built{Inst: inst})
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 10, Seed: 6})
	if _, _, err := harness.ReplayBatch(a.Insts[0], trace, 0); err != nil {
		t.Fatal(err)
	}
	reps := harness.Reports(a.Stats, nf.Kernel.String())
	if len(reps) != 1 {
		t.Fatalf("%d reports, want 1", len(reps))
	}
	if r := reps[0]; r.Name != "native" || r.Flavor != "Kernel" || r.Packets != 10 || r.Insns != 0 || len(r.Callees) != 0 {
		t.Fatalf("native report: %+v", r)
	}
	s := reps[0].String()
	if !strings.HasPrefix(s, "native/Kernel: 10 packets, 0 insns,") ||
		strings.Contains(s, "interp") || strings.Contains(s, "opcode mix") {
		t.Fatalf("native report rendering:\n%s", s)
	}
}

// TestThroughputGuardedArrivalClock: Throughput drives a guarded
// instance on the trace's arrival clock, as the daemon does, so a
// syn-flood sheds exactly what a warm-up plus one ReplayBatch sheds on
// a twin instance with the tick threaded between the two passes.
func TestThroughputGuardedArrivalClock(t *testing.T) {
	o := runtime.Options{Guard: nfcatalog.GuardPolicy()}
	spec := runtime.TraceSpec{Flows: 256, Packets: 2048, Seed: 11, Scenario: "syn-flood"}
	guarded := func() (nf.Instance, *pktgen.Trace, func() uint64) {
		tr, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := nfcatalog.BuildWith(o, "conntrack", nf.EBPF, tr)
		if err != nil {
			t.Fatal(err)
		}
		a := nfcatalog.Attach(o, "conntrack", b)
		return a.Insts[0], tr, a.Guards[0].Shed
	}

	inst, tr, shed := guarded()
	res, err := harness.Throughput(inst, tr, 1)
	if err != nil {
		t.Fatal(err)
	}

	twin, ttr, twinShed := guarded()
	warm, tick, err := harness.ReplayBatch(twin, ttr, 0)
	if err != nil {
		t.Fatal(err)
	}
	measured, _, err := harness.ReplayBatch(twin, ttr, tick)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Shed+measured.Shed == 0 {
		t.Fatal("the syn-flood shed nothing: the comparison proves nothing")
	}
	if got, want := shed(), warm.Shed+measured.Shed; got != want || twinShed() != want {
		t.Fatalf("Throughput shed %d, the twin's two batches %d (guard counted %d)", got, want, twinShed())
	}
	if res.Verdicts != measured.Verdicts {
		t.Fatalf("Throughput verdicts %v, the twin's measured batch %v", res.Verdicts, measured.Verdicts)
	}
}
