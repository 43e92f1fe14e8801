package vm_test

import (
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// Interpreter cost model: these benchmarks quantify the per-instruction
// dispatch, per-helper-call, and per-kfunc-call costs the reproduction's
// relative results rest on (see DESIGN.md §1).

func BenchmarkDispatchALU(b *testing.B) {
	m := vm.New()
	bb := asm.New()
	bb.MovImm(asm.R0, 0)
	for i := 0; i < 64; i++ {
		bb.AddImm(asm.R0, 1)
	}
	bb.Exit()
	prog, err := m.Load("alu", bb.MustProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHelperCall(b *testing.B) {
	m := vm.New()
	bb := asm.New()
	for i := 0; i < 16; i++ {
		bb.Call(vm.HelperGetPrandomU32)
	}
	bb.Exit()
	prog, err := m.Load("helpers", bb.MustProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapLookupHelper(b *testing.B) {
	m := vm.New()
	fd := m.RegisterMap(maps.Must(maps.NewArray(8, 8)))
	bb := asm.New()
	bb.StoreImm(asm.R10, -4, 3, 4)
	for i := 0; i < 16; i++ {
		bb.LoadMap(asm.R1, fd)
		bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
		bb.Call(vm.HelperMapLookup)
	}
	bb.Exit()
	prog, err := m.Load("lookups", bb.MustProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatch compares the wire-format reference loop against the
// predecoded fast path on four instruction-mix profiles. The /predecoded
// variants are what every NF replay pays per instruction; /wire is the
// pre-predecode baseline kept as the differential reference.
func BenchmarkDispatch(b *testing.B) {
	mixes := []struct {
		name  string
		build func(bb *asm.Builder)
	}{
		{"alu", func(bb *asm.Builder) {
			// Hash-mix chain (add/xor/shift on one register) — the generic
			// ALU superinstruction collapses it pairwise.
			bb.MovImm(asm.R0, 0)
			bb.MovImm(asm.R7, 0x1234)
			for i := 0; i < 16; i++ {
				bb.AddImm(asm.R0, 3)
				bb.Xor(asm.R0, asm.R7)
				bb.LshImm(asm.R0, 1)
				bb.Add(asm.R0, asm.R7)
			}
			bb.Exit()
		}},
		{"branch", func(bb *asm.Builder) {
			// Bottom-test counted loop, the shape compilers emit for
			// bounded loops.
			bb.MovImm(asm.R0, 0)
			bb.MovImm(asm.R6, 0)
			bb.Label("top")
			bb.AddImm(asm.R0, 5)
			bb.AddImm(asm.R6, 1)
			bb.JmpImm(asm.JLT, asm.R6, 64, "top")
			bb.Exit()
		}},
		{"mem", func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			bb.StoreImm(asm.R10, -8, 0x5a5a5a5a, 8)
			for i := 0; i < 16; i++ {
				bb.Load(asm.R3, asm.R10, -8, 8)
				bb.AndImm(asm.R3, 0xffff)
				bb.Add(asm.R0, asm.R3)
				bb.Store(asm.R10, -16, asm.R0, 8)
			}
			bb.Exit()
		}},
		{"mixed", func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			bb.StoreImm(asm.R10, -8, 7, 8)
			bb.MovImm(asm.R6, 0)
			bb.Label("top")
			bb.JmpImm(asm.JGE, asm.R6, 16, "done")
			bb.Load(asm.R3, asm.R10, -8, 8)
			bb.AndImm(asm.R3, 0xff)
			bb.Add(asm.R0, asm.R3)
			bb.Mov32Imm(asm.R4, 0x100)
			bb.Add32(asm.R0, asm.R4)
			bb.AddImm(asm.R6, 1)
			bb.Ja("top")
			bb.Label("done")
			bb.Exit()
		}},
	}
	for _, mix := range mixes {
		for _, mode := range []string{"wire", "predecoded", "jit"} {
			b.Run(mix.name+"/"+mode, func(b *testing.B) {
				m := vm.New()
				tier, err := vm.ParseTier(mode)
				if err != nil {
					b.Fatal(err)
				}
				m.SetTier(tier)
				bb := asm.New()
				mix.build(bb)
				prog, err := m.Load(mix.name, bb.MustProgram())
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Run(prog, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTelemetryOverhead measures the cost of stats collection on
// a representative mixed program (ALU + helper + map lookup): /off is
// the default unmetered path, /on has a Stats attached. The /off
// variant must stay at the pre-telemetry baseline (EXPERIMENTS.md).
func BenchmarkTelemetryOverhead(b *testing.B) {
	build := func(b *testing.B) (*vm.VM, *vm.Program) {
		m := vm.New()
		fd := m.RegisterMap(maps.Must(maps.NewArray(8, 8)))
		bb := asm.New()
		bb.MovImm(asm.R0, 0)
		bb.StoreImm(asm.R10, -4, 3, 4)
		for i := 0; i < 8; i++ {
			bb.AddImm(asm.R0, 1)
			bb.Call(vm.HelperGetPrandomU32)
			bb.LoadMap(asm.R1, fd)
			bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
			bb.Call(vm.HelperMapLookup)
		}
		bb.MovImm(asm.R0, 0)
		bb.Exit()
		prog, err := m.Load("mixed", bb.MustProgram())
		if err != nil {
			b.Fatal(err)
		}
		return m, prog
	}
	for _, bc := range []struct {
		name  string
		tier  vm.Tier
		stats bool
	}{
		{"off", vm.TierPredecoded, false},
		{"on", vm.TierPredecoded, true},
		{"wire/off", vm.TierWire, false},
		{"wire/on", vm.TierWire, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, prog := build(b)
			m.SetTier(bc.tier)
			if bc.stats {
				m.SetStats(vm.NewStats())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(prog, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKfuncCall(b *testing.B) {
	m := vm.New()
	m.RegisterKfunc(&vm.Kfunc{
		ID: 999, Name: "nop",
		Impl: func(machine *vm.VM, _, _, _, _, _ uint64) (uint64, error) { return 0, nil },
		Meta: vm.KfuncMeta{Ret: vm.RetScalar},
	})
	bb := asm.New()
	for i := 0; i < 16; i++ {
		bb.Kfunc(999)
	}
	bb.Exit()
	prog, err := m.Load("kfuncs", bb.MustProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}
