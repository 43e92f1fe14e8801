package nfcatalog

import (
	"sync"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// TestInstancesShareNoState: two instances of one NF, built and
// replayed at the same time with opposite Options — wire tier, stats and
// a recorder on one, the zero value on the other — each carry exactly
// what their own Options asked for, and a VM created afterwards starts
// predecoded with nothing attached. Nothing one builder configures can
// reach the other or a later VM: there is no process-wide default for
// either to read. Run it under -race.
func TestInstancesShareNoState(t *testing.T) {
	const packets = 512
	tr := pktgen.Generate(pktgen.Config{Flows: 64, Packets: packets, ZipfS: 1.1, Seed: 11})
	PrepareTrace("cmsketch", tr)
	opts := []runtime.Options{
		{Tier: "wire", Stats: true, Trace: &runtime.TraceOptions{Capacity: 1 << 12}},
		{},
	}
	attached := make([]Attached, len(opts))
	var wg sync.WaitGroup
	errs := make([]error, len(opts))
	for i, o := range opts {
		wg.Add(1)
		go func(i int, o runtime.Options) {
			defer wg.Done()
			own := tr.Clone()
			b, err := BuildWith(o, "cmsketch", nf.EBPF, own)
			if err != nil {
				errs[i] = err
				return
			}
			a := Attach(o, "cmsketch", b)
			for p := range own.Packets {
				if _, err := a.Insts[0].Process(own.Packets[p][:]); err != nil {
					errs[i] = err
					return
				}
			}
			attached[i] = a
		}(i, o)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}

	on, off := attached[0], attached[1]
	if on.Stats == nil || on.Rec == nil || off.Stats != nil || off.Rec != nil {
		t.Fatalf("attached stats/recorder: on %v/%v, off %v/%v", on.Stats, on.Rec, off.Stats, off.Rec)
	}
	for _, m := range runtime.VMs(on.Insts[0]) {
		if m.Tier() != vm.TierWire || m.Stats() != on.Stats {
			t.Errorf("configured VM: tier %v, stats %p, want wire and %p", m.Tier(), m.Stats(), on.Stats)
		}
	}
	for _, m := range runtime.VMs(off.Insts[0]) {
		if m.Tier() != vm.TierPredecoded || m.Stats() != nil {
			t.Errorf("zero-Options VM: tier %v, stats %p, want predecoded and nil", m.Tier(), m.Stats())
		}
	}
	// The configured instance's Stats and recorder saw its own replay
	// and nothing of the other's.
	runs := func() uint64 {
		ps, _ := on.Stats.ProgSnapshot("cmsketch")
		return ps.RunCnt
	}
	if runs() != packets || on.Rec.Packets() != packets {
		t.Fatalf("configured instance counted %d runs and recorded %d packets, want %d each",
			runs(), on.Rec.Packets(), packets)
	}

	// A VM created afterwards starts on the zero tier with nothing
	// attached: running it moves neither the Stats nor the recorder.
	fresh := vm.New()
	if fresh.Tier() != vm.TierPredecoded || fresh.Stats() != nil {
		t.Fatalf("fresh VM: tier %v, stats %p", fresh.Tier(), fresh.Stats())
	}
	p, err := fresh.Load("cmsketch", asm.New().MovImm(asm.R0, 2).Exit().MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run(p, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if runs() != packets || on.Rec.Packets() != packets {
		t.Fatalf("a fresh VM's run reached the configured instance: %d runs, %d packets recorded",
			runs(), on.Rec.Packets())
	}
}
