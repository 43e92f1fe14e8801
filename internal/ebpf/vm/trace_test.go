package vm_test

import (
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/trace"
)

// traceProg builds a program exercising every traced surface: a helper
// call (prandom), a map lookup that hits, one that misses, an update,
// and a kfunc, then returns XDP_PASS.
func traceProg(t testing.TB, m *vm.VM) *vm.Program {
	t.Helper()
	fd := m.RegisterMap(maps.Must(maps.NewArray(8, 8)))
	m.RegisterKfunc(&vm.Kfunc{
		ID: 900, Name: "test_probe",
		Impl: func(_ *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 77, nil },
		Meta: vm.KfuncMeta{Ret: vm.RetScalar},
	})
	bb := asm.New()
	bb.Call(vm.HelperGetPrandomU32)
	// Hit: key 3 is in range for an 8-slot array.
	bb.StoreImm(asm.R10, -4, 3, 4)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Call(vm.HelperMapLookup)
	// Miss: key 99 is out of range.
	bb.StoreImm(asm.R10, -4, 99, 4)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Call(vm.HelperMapLookup)
	// Update key 3.
	bb.StoreImm(asm.R10, -4, 3, 4)
	bb.StoreImm(asm.R10, -16, 42, 8)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Mov(asm.R3, asm.R10).AddImm(asm.R3, -16)
	bb.Call(vm.HelperMapUpdate)
	bb.Kfunc(900)
	bb.MovImm(asm.R0, 2) // XDP_PASS
	bb.Exit()
	prog, err := m.Load("traced", bb.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunEmitsEventSequence checks the full per-packet event journey on
// both interpreter loops: packet_in, helper, map ops with miss flags,
// kfunc, verdict — all carrying the same (Pkt, Flow) tag.
func TestRunEmitsEventSequence(t *testing.T) {
	for _, tier := range []vm.Tier{vm.TierPredecoded, vm.TierWire} {
		t.Run(tier.String(), func(t *testing.T) {
			m := vm.New()
			m.SetTier(tier)
			prog := traceProg(t, m)
			rec := trace.NewRecorder(trace.Config{Capacity: 64})
			m.SetRecorder(rec)

			ctx := []byte("0123456789abcdefXYZ") // >16 bytes: flow key + payload
			ret, err := m.Run(prog, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ret != 2 {
				t.Fatalf("verdict %d, want 2", ret)
			}

			evs := rec.Drain(0)
			var kinds []trace.Kind
			for _, ev := range evs {
				kinds = append(kinds, ev.Kind)
			}
			want := []trace.Kind{
				trace.KindPacketIn,
				trace.KindHelper, // prandom
				trace.KindMapOp,  // lookup hit
				trace.KindMapOp,  // lookup miss
				trace.KindMapOp,  // update
				trace.KindKfunc,
				trace.KindVerdict,
			}
			if len(kinds) != len(want) {
				t.Fatalf("%d events %v, want %d", len(kinds), kinds, len(want))
			}
			for i := range want {
				if kinds[i] != want[i] {
					t.Fatalf("event %d kind %s, want %s (all: %v)", i, kinds[i], want[i], kinds)
				}
			}

			flow := trace.FlowOf(ctx)
			for i, ev := range evs {
				if ev.Pkt != 0 || ev.Flow != flow {
					t.Fatalf("event %d: pkt=%d flow=%#x, want pkt=0 flow=%#x", i, ev.Pkt, ev.Flow, flow)
				}
			}
			if evs[1].Name != "get_prandom_u32" {
				t.Fatalf("helper event name %q", evs[1].Name)
			}
			if evs[2].Miss || evs[2].Op != "lookup" {
				t.Fatalf("first lookup: %+v, want hit", evs[2])
			}
			if !evs[3].Miss {
				t.Fatalf("second lookup: %+v, want miss", evs[3])
			}
			if evs[4].Op != "update" {
				t.Fatalf("map update event: %+v", evs[4])
			}
			if evs[5].Name != "test_probe" || evs[5].Val != 77 {
				t.Fatalf("kfunc event: %+v", evs[5])
			}
			v := evs[6]
			if v.Val != 2 || v.Name != "traced" || v.LatNs == 0 || v.Err != "" {
				t.Fatalf("verdict event: %+v", v)
			}
			p := evs[0]
			if p.Name != "traced" || p.Val != uint64(len(ctx)) {
				t.Fatalf("packet_in event: %+v", p)
			}
		})
	}
}

// TestTraceSampledOut: a rate-0-ish recorder (tiny rate, seed chosen so
// packet 0 is rejected) emits nothing for unsampled packets, and the
// packet counters still advance.
func TestTraceSampledOut(t *testing.T) {
	m := vm.New()
	prog := traceProg(t, m)
	// Find a seed that rejects the first packets at rate 1e-9.
	rec := trace.NewRecorder(trace.Config{Capacity: 64, SampleRate: 1e-9, Seed: 1})
	m.SetRecorder(rec)
	for i := 0; i < 50; i++ {
		if _, err := m.Run(prog, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Packets() != 50 {
		t.Fatalf("packets = %d, want 50", rec.Packets())
	}
	if got := rec.SampledPackets(); got != rec.Emitted()/7 && rec.Emitted()%7 != 0 {
		t.Fatalf("emitted %d not a multiple of 7 events per sampled packet (sampled %d)", rec.Emitted(), got)
	}
	// At rate 1e-9 over 50 packets, sampling anything is ~impossible.
	if rec.SampledPackets() != 0 {
		t.Fatalf("sampled %d packets at rate 1e-9", rec.SampledPackets())
	}
	if n := len(rec.Drain(0)); n != 0 {
		t.Fatalf("%d buffered events for unsampled packets", n)
	}
}

// TestTraceDetach: SetRecorder(nil) restores the unmetered path.
func TestTraceDetach(t *testing.T) {
	m := vm.New()
	prog := traceProg(t, m)
	rec := trace.NewRecorder(trace.Config{Capacity: 64})
	m.SetRecorder(rec)
	if _, err := m.Run(prog, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	m.SetRecorder(nil)
	if m.Recorder() != nil {
		t.Fatal("recorder still attached")
	}
	if _, err := m.Run(prog, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if rec.Packets() != 1 {
		t.Fatalf("detached VM still sampling: %d packets", rec.Packets())
	}
}

// TestTraceWithStats: tracing and stats attached together keep both
// accounts correct (the observed path serves both).
func TestTraceWithStats(t *testing.T) {
	m := vm.New()
	prog := traceProg(t, m)
	st := vm.NewStats()
	m.SetStats(st)
	rec := trace.NewRecorder(trace.Config{Capacity: 64})
	m.SetRecorder(rec)
	const runs = 5
	for i := 0; i < runs; i++ {
		if _, err := m.Run(prog, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	ps, ok := st.ProgSnapshot("traced")
	if !ok || ps.RunCnt != runs {
		t.Fatalf("stats run_cnt = %+v, want %d", ps, runs)
	}
	if got := rec.Emitted(); got != runs*7 {
		t.Fatalf("emitted %d events, want %d", got, runs*7)
	}
}
