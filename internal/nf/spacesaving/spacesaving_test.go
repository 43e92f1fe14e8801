package spacesaving

import (
	"testing"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

var cfg = Config{Slots: 64}

func TestElephantsSurviveAllFlavors(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: 30000, ZipfS: 1.3, Seed: 1})
	truth := map[int32]uint32{}
	for i := range trace.Packets {
		truth[trace.FlowOf[i]]++
	}
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		s, err := New(flavor, cfg)
		if err != nil {
			t.Fatalf("%v: %v", flavor, err)
		}
		for i := range trace.Packets {
			if _, err := s.Process(trace.Packets[i][:]); err != nil {
				t.Fatalf("%v: %v", flavor, err)
			}
		}
		// Space-Saving guarantee: a flow with count > N/m is monitored,
		// and its estimate is an upper bound on its true count.
		for f, n := range truth {
			if n < 30000/64*2 {
				continue
			}
			got := s.Estimate(trace.FlowKeys[f][:])
			if got == 0 {
				t.Fatalf("%v: heavy flow %d (count %d) not monitored", flavor, f, n)
			}
			if got < n {
				t.Fatalf("%v: estimate %d below true count %d", flavor, f, got)
			}
		}
	}
}

func TestFlavorsAgreeExactly(t *testing.T) {
	// The algorithm is deterministic, so all three flavours must hold
	// identical summaries after the same trace.
	trace := pktgen.Generate(pktgen.Config{Flows: 300, Packets: 5000, ZipfS: 1.1, Seed: 2})
	k, _ := New(nf.Kernel, cfg)
	e, _ := New(nf.EBPF, cfg)
	s, _ := New(nf.ENetSTL, cfg)
	for i := range trace.Packets {
		for _, x := range []*Summary{k, e, s} {
			if _, err := x.Process(trace.Packets[i][:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := range trace.FlowKeys {
		a := k.Estimate(trace.FlowKeys[f][:])
		b := e.Estimate(trace.FlowKeys[f][:])
		c := s.Estimate(trace.FlowKeys[f][:])
		if a != b || a != c {
			t.Fatalf("flow %d: %d %d %d", f, a, b, c)
		}
	}
}

func TestSingleFlowExactCount(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		s, err := New(flavor, Config{Slots: 8})
		if err != nil {
			t.Fatal(err)
		}
		trace := pktgen.Generate(pktgen.Config{Flows: 1, Packets: 500, Seed: 3})
		for i := range trace.Packets {
			s.Process(trace.Packets[i][:])
		}
		if got := s.Estimate(trace.FlowKeys[0][:]); got != 500 {
			t.Fatalf("%v: single-flow count %d, want 500", flavor, got)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []int{0, 4, 100, 2048} {
		if _, err := New(nf.Kernel, Config{Slots: bad}); err == nil {
			t.Fatalf("slots=%d accepted", bad)
		}
	}
}

// TestEBPFProgramVerifiesWithinSmallBudget pins the cost of verifying
// the pure-eBPF program. Its min-scan keeps the index of the minimum in
// a register that reaches memory only through `and r8, Slots-1`; a
// verifier that told states apart by that index walked the loop once
// per (iteration, argmin) pair — 57 744 steps at 64 slots — where one
// that compares only what a later check observes needs about 4 000.
func TestEBPFProgramVerifiesWithinSmallBudget(t *testing.T) {
	machine := vm.New()
	fd := machine.RegisterMap(maps.Must(maps.NewArray(2*cfg.Slots*4, 1)))
	prog, err := buildProgram(fd, cfg, false).Program()
	if err != nil {
		t.Fatal(err)
	}
	opts := verifier.Options{CtxSize: nf.PktSize, StateBudget: 8192}
	if err := verifier.Verify(machine, prog, opts); err != nil {
		t.Fatalf("spacesaving/eBPF (%d insns) does not verify in 8192 steps: %v", len(prog), err)
	}
}
