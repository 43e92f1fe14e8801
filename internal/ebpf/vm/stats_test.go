package vm_test

import (
	"strings"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/telemetry"
)

// nopKfunc registers a do-nothing kfunc under id and returns the VM.
func nopKfunc(m *vm.VM, id int32, name string) {
	m.RegisterKfunc(&vm.Kfunc{
		ID: id, Name: name,
		Impl: func(_ *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{Ret: vm.RetScalar},
	})
}

// TestStatsExactAccounting asserts exact instruction totals, opcode
// class counts, and per-helper / per-kfunc call counts for small
// hand-assembled straight-line programs, across two identical runs.
func TestStatsExactAccounting(t *testing.T) {
	type counts struct {
		insns   uint64
		opClass map[string]uint64 // name -> count, exact
		helpers map[int32]uint64
		kfuncs  map[int32]uint64
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (*vm.VM, *vm.Program)
		want  counts
	}{
		{
			name: "alu_and_helpers",
			build: func(t *testing.T) (*vm.VM, *vm.Program) {
				m := vm.New()
				bb := asm.New()
				bb.MovImm(asm.R0, 0)
				for i := 0; i < 10; i++ {
					bb.AddImm(asm.R0, 1)
				}
				for i := 0; i < 3; i++ {
					bb.Call(vm.HelperGetPrandomU32)
				}
				bb.MovImm(asm.R0, 0)
				bb.Exit()
				p, err := m.Load("alu_and_helpers", bb.MustProgram())
				if err != nil {
					t.Fatal(err)
				}
				return m, p
			},
			want: counts{
				insns:   16, // 12 alu64 + 3 call + exit
				opClass: map[string]uint64{"alu64": 12, "jmp": 4},
				helpers: map[int32]uint64{vm.HelperGetPrandomU32: 3},
			},
		},
		{
			name: "kfunc_mix",
			build: func(t *testing.T) (*vm.VM, *vm.Program) {
				m := vm.New()
				nopKfunc(m, 998, "nop_a")
				nopKfunc(m, 999, "nop_b")
				bb := asm.New()
				for i := 0; i < 4; i++ {
					bb.Kfunc(999)
				}
				bb.Kfunc(998).Kfunc(998)
				bb.Call(vm.HelperKtimeGetNS)
				bb.MovImm(asm.R0, 0)
				bb.Exit()
				p, err := m.Load("kfunc_mix", bb.MustProgram())
				if err != nil {
					t.Fatal(err)
				}
				return m, p
			},
			want: counts{
				insns:   9,
				opClass: map[string]uint64{"jmp": 8, "alu64": 1},
				helpers: map[int32]uint64{vm.HelperKtimeGetNS: 1},
				kfuncs:  map[int32]uint64{998: 2, 999: 4},
			},
		},
		{
			name: "map_ops",
			build: func(t *testing.T) (*vm.VM, *vm.Program) {
				m := vm.New()
				fd := m.RegisterMap(maps.Must(maps.NewArray(8, 4)))
				bb := asm.New()
				bb.StoreImm(asm.R10, -4, 1, 4) // in-range key
				bb.LoadMap(asm.R1, fd)
				bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
				bb.Call(vm.HelperMapLookup)
				bb.StoreImm(asm.R10, -4, 99, 4) // out-of-range key: miss
				bb.LoadMap(asm.R1, fd)
				bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
				bb.Call(vm.HelperMapLookup)
				bb.MovImm(asm.R0, 0)
				bb.Exit()
				p, err := m.Load("map_ops", bb.MustProgram())
				if err != nil {
					t.Fatal(err)
				}
				return m, p
			},
			want: counts{
				// 2 st + 2 ld_imm64 pairs (1 dispatch each) + 4 alu64
				// (mov/add ×2) + 2 call + 1 mov + exit
				insns:   12,
				opClass: map[string]uint64{"st": 2, "ld": 2, "alu64": 5, "jmp": 3},
				helpers: map[int32]uint64{vm.HelperMapLookup: 2},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, p := tc.build(t)
			st := m.EnableStats()
			const runs = 2
			for i := 0; i < runs; i++ {
				if _, err := m.Run(p, nil); err != nil {
					t.Fatal(err)
				}
			}
			ps, ok := st.ProgSnapshot(p.Name())
			if !ok {
				t.Fatalf("no stats for program %q", p.Name())
			}
			if ps.RunCnt != runs {
				t.Errorf("RunCnt = %d, want %d", ps.RunCnt, runs)
			}
			if ps.Insns != runs*tc.want.insns {
				t.Errorf("Insns = %d, want %d", ps.Insns, runs*tc.want.insns)
			}
			var classSum uint64
			for c := 0; c < vm.NumOpClasses; c++ {
				got := ps.OpClass[c]
				classSum += got
				want := runs * tc.want.opClass[vm.OpClassName(c)]
				if got != want {
					t.Errorf("OpClass[%s] = %d, want %d", vm.OpClassName(c), got, want)
				}
			}
			if classSum != ps.Insns {
				t.Errorf("opcode classes sum to %d, Insns = %d", classSum, ps.Insns)
			}
			for id, want := range tc.want.helpers {
				cs := ps.Helpers[id]
				if cs == nil || cs.Count != runs*want {
					t.Errorf("helper %d count = %+v, want %d", id, cs, runs*want)
				}
			}
			if len(ps.Helpers) != len(tc.want.helpers) {
				t.Errorf("got %d helper series, want %d", len(ps.Helpers), len(tc.want.helpers))
			}
			for id, want := range tc.want.kfuncs {
				cs := ps.Kfuncs[id]
				if cs == nil || cs.Count != runs*want {
					t.Errorf("kfunc %d count = %+v, want %d", id, cs, runs*want)
				}
			}
			if len(ps.Kfuncs) != len(tc.want.kfuncs) {
				t.Errorf("got %d kfunc series, want %d", len(ps.Kfuncs), len(tc.want.kfuncs))
			}

			// Determinism: a fresh identical VM yields identical count
			// fields (time fields vary, counts must not).
			m2, p2 := tc.build(t)
			st2 := m2.EnableStats()
			for i := 0; i < runs; i++ {
				if _, err := m2.Run(p2, nil); err != nil {
					t.Fatal(err)
				}
			}
			ps2, _ := st2.ProgSnapshot(p2.Name())
			if ps2.RunCnt != ps.RunCnt || ps2.Insns != ps.Insns || ps2.OpClass != ps.OpClass {
				t.Errorf("counts not deterministic across identical runs:\n%+v\n%+v", ps, ps2)
			}
		})
	}
}

func TestStatsMapCounters(t *testing.T) {
	m := vm.New()
	fd := m.RegisterMap(maps.Must(maps.NewHash(4, 8, 16)))
	st := m.EnableStats()

	bb := asm.New()
	bb.StoreImm(asm.R10, -4, 7, 4)
	bb.StoreImm(asm.R10, -12, 0, 8)
	// update, lookup (hit), delete, lookup (miss)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Mov(asm.R3, asm.R10).AddImm(asm.R3, -12)
	bb.Call(vm.HelperMapUpdate)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Call(vm.HelperMapLookup)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Call(vm.HelperMapDelete)
	bb.LoadMap(asm.R1, fd)
	bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	bb.Call(vm.HelperMapLookup)
	bb.MovImm(asm.R0, 0)
	bb.Exit()
	p, err := m.Load("mapcnt", bb.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(p, nil); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	st.Publish(reg)
	text := reg.Text()
	for _, want := range []string{
		`vm_map_ops_total{map="fd0",op="lookup",type="hash"} 2`,
		`vm_map_ops_total{map="fd0",op="update",type="hash"} 1`,
		`vm_map_ops_total{map="fd0",op="delete",type="hash"} 1`,
		`vm_map_misses_total{map="fd0",type="hash"} 1`,
		`vm_run_cnt{prog="mapcnt"} 1`,
		`vm_helper_calls_total{helper="map_lookup_elem",prog="mapcnt"} 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `vm_run_time_ns{prog="mapcnt"} `) {
		t.Errorf("exposition missing vm_run_time_ns:\n%s", text)
	}
}

func TestStatsDisabledCollectsNothing(t *testing.T) {
	m := vm.New()
	if m.Stats() != nil {
		t.Fatal("stats enabled by default")
	}
	bb := asm.New()
	bb.MovImm(asm.R0, 0).Exit()
	p, err := m.Load("off", bb.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	// Enabling later starts from zero.
	st := m.EnableStats()
	if _, ok := st.ProgSnapshot("off"); ok {
		t.Fatal("stats recorded while disabled")
	}
	if _, err := m.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	ps, ok := st.ProgSnapshot("off")
	if !ok || ps.RunCnt != 1 || ps.Insns != 2 {
		t.Fatalf("post-enable stats: %+v ok=%v", ps, ok)
	}
	m.SetStats(nil)
	if _, err := m.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if ps, _ := st.ProgSnapshot("off"); ps.RunCnt != 1 {
		t.Fatalf("stats recorded after disable: %+v", ps)
	}
}

func TestGlobalStatsSwitch(t *testing.T) {
	vm.SetGlobalStats(true)
	defer vm.SetGlobalStats(false)
	m := vm.New()
	if m.Stats() == nil {
		t.Fatal("global switch did not enable stats on New")
	}
	bb := asm.New()
	bb.MovImm(asm.R0, 2).Exit()
	p, err := m.Load("global", bb.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	merged := vm.CollectStats()
	ps, ok := merged.ProgSnapshot("global")
	if !ok || ps.RunCnt != 1 {
		t.Fatalf("collected stats: %+v ok=%v", ps, ok)
	}
	// Re-enabling resets the retained set.
	vm.SetGlobalStats(true)
	if _, ok := vm.CollectStats().ProgSnapshot("global"); ok {
		t.Fatal("SetGlobalStats(true) did not reset collection")
	}
}

func TestStatsMerge(t *testing.T) {
	a, b := vm.NewStats(), vm.NewStats()
	a.RecordRun("x", 10)
	b.RecordRun("x", 30)
	b.RecordRun("y", 5)
	a.Merge(b)
	ps, _ := a.ProgSnapshot("x")
	if ps.RunCnt != 2 || ps.RunTimeNs != 40 {
		t.Fatalf("merged x: %+v", ps)
	}
	if _, ok := a.ProgSnapshot("y"); !ok {
		t.Fatal("merge dropped y")
	}
	if names := a.ProgNames(); len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("ProgNames = %v", names)
	}
}
