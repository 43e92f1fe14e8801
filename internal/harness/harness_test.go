package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// fakeNF burns a fixed amount of time per packet.
type fakeNF struct {
	name  string
	delay time.Duration
	fail  bool
	calls int
}

func (f *fakeNF) Name() string      { return f.name }
func (f *fakeNF) Flavor() nf.Flavor { return nf.Kernel }
func (f *fakeNF) Process(pkt []byte) (uint64, error) {
	f.calls++
	if f.fail {
		return 0, errors.New("boom")
	}
	if f.delay > 0 {
		end := time.Now().Add(f.delay)
		for time.Now().Before(end) {
		}
	}
	return 2, nil
}

func TestThroughputCountsAndOrdering(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 4, Packets: 200, Seed: 1})
	fast := &fakeNF{name: "fast"}
	slow := &fakeNF{name: "slow", delay: 20 * time.Microsecond}
	rf, err := Throughput(fast, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Throughput(slow, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rf.PPS <= rs.PPS {
		t.Fatalf("fast (%f) not faster than slow (%f)", rf.PPS, rs.PPS)
	}
	// warmup + 2 trials = 3 passes.
	if fast.calls != 600 {
		t.Fatalf("calls = %d, want 600", fast.calls)
	}
	if rf.Trials != 2 || rf.NsPerOp <= 0 {
		t.Fatalf("result fields: %+v", rf)
	}
}

func TestThroughputPropagatesErrors(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 10, Seed: 2})
	_, err := Throughput(&fakeNF{name: "bad", fail: true}, trace, 1)
	if err == nil {
		t.Fatal("error swallowed")
	}
	if msg := err.Error(); !strings.Contains(msg, "bad/Kernel") || !strings.Contains(msg, "packet 0") {
		t.Fatalf("error %q does not name the NF, flavour and packet", msg)
	}
	if _, err := Throughput(&fakeNF{name: "x"}, &pktgen.Trace{}, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestParallelRunPropagatesErrors: a shard's failing packet stops the
// run, and the error names the NF, flavour, shard and packet.
func TestParallelRunPropagatesErrors(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 8, Packets: 64, Seed: 2})
	build := func(shard int, _ *pktgen.Trace) (nf.Instance, error) {
		return &fakeNF{name: "bad", fail: shard == 1}, nil
	}
	_, err := ParallelRun(trace, 2, build, 1)
	if err == nil {
		t.Fatal("error swallowed")
	}
	if msg := err.Error(); !strings.Contains(msg, "bad/Kernel: shard 1") || !strings.Contains(msg, "packet 0") {
		t.Fatalf("error %q does not name the NF, flavour, shard and packet", msg)
	}
	failing := func(shard int, _ *pktgen.Trace) (nf.Instance, error) {
		return nil, fmt.Errorf("no instance")
	}
	if _, err := ParallelRun(trace, 2, failing, 1); err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("builder error not propagated: %v", err)
	}
	if _, err := ParallelRun(&pktgen.Trace{}, 2, build, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestLatencyIncludesWireTerm(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 64, Seed: 3})
	lr, err := Latency(&fakeNF{name: "x"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if lr.P50 < WireNs || lr.Mean < WireNs || lr.P99 < lr.P50 {
		t.Fatalf("latency result inconsistent: %+v", lr)
	}
}

// TestLatencyEmptyTrace is the regression test for the empty-trace
// panic: Latency used to index durs[idx] on a zero-length slice.
func TestLatencyEmptyTrace(t *testing.T) {
	if _, err := Latency(&fakeNF{name: "x"}, &pktgen.Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestLatencyDistSnapshot(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 50, Seed: 9})
	lr, err := Latency(&fakeNF{name: "x"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Dist.Count != 50 {
		t.Fatalf("Dist.Count = %d, want 50", lr.Dist.Count)
	}
	if lr.Dist.Min < WireNs || lr.Dist.Max < lr.Dist.Min {
		t.Fatalf("Dist bounds inconsistent: %+v", lr.Dist)
	}
}

// vmInstance builds a trivial VM-backed NF: one ktime helper call, one
// registered kfunc call, return 2 (XDP_PASS).
func vmInstance(t *testing.T) *nf.VMInstance {
	t.Helper()
	m := vm.New()
	m.RegisterKfunc(&vm.Kfunc{
		ID: 777, Name: "test_touch",
		Impl: func(_ *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{Ret: vm.RetScalar},
	})
	bb := asm.New()
	bb.Call(vm.HelperKtimeGetNS)
	bb.Kfunc(777)
	bb.MovImm(asm.R0, 2)
	bb.Exit()
	p, err := m.Load("prof", bb.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	return nf.NewVMInstance("prof", nf.ENetSTL, m, p)
}

func TestStatsAttachment(t *testing.T) {
	inst := vmInstance(t)
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 20, Seed: 7})

	// Stats disabled: no snapshot attached.
	r, err := Throughput(inst, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats != nil {
		t.Fatalf("stats attached while disabled: %+v", r.Stats)
	}

	inst.Machine.SetStats(vm.NewStats())
	r, err = Throughput(inst, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	// warmup + 1 trial = 2 passes of 20 packets.
	if r.Stats == nil || r.Stats.RunCnt != 40 {
		t.Fatalf("throughput stats: %+v", r.Stats)
	}
	lr, err := Latency(inst, trace)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Stats == nil || lr.Stats.RunCnt != 60 {
		t.Fatalf("latency stats: %+v", lr.Stats)
	}
	if len(lr.Stats.Kfuncs) != 1 {
		t.Fatalf("kfunc attribution missing: %+v", lr.Stats)
	}
}

func TestBehaviorFraction(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 2, Packets: 100, Seed: 4})
	full := &fakeNF{name: "full", delay: 40 * time.Microsecond}
	stripped := &fakeNF{name: "stripped", delay: 20 * time.Microsecond}
	frac, err := BehaviorFraction(full, stripped, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("fraction %.2f, want ~0.5", frac)
	}
	// Stripped slower than full clamps to zero rather than going
	// negative.
	frac, err = BehaviorFraction(stripped, full, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 {
		t.Fatalf("negative fraction not clamped: %f", frac)
	}
}

func TestResultStrings(t *testing.T) {
	r := Result{Name: "x", Flavor: "eBPF", PPS: 1e6, NsPerOp: 1000}
	if r.String() == "" {
		t.Fatal("empty Result string")
	}
	l := LatencyResult{Name: "x", Flavor: "eBPF", P50: 1, P99: 2, Mean: 1.5}
	if l.String() == "" {
		t.Fatal("empty LatencyResult string")
	}
}
