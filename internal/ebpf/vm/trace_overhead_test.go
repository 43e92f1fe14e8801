package vm

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/trace"
)

// This file pins the flight recorder's zero-cost-disabled contract: a VM
// with no recorder attached must run within 2% of the pre-trace
// interpreter. The baseline below is a literal replica of Run as it
// stood before tracing landed — defer/recover plus the single stats nil
// check — so the comparison isolates exactly the branches tracing added
// (the vm.rec nil check in Run and the vm.sampled checks on call
// dispatch), not pre-existing interpreter costs.
func (vm *VM) runBaseline(p *Program, ctx []byte) (ret uint64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			vm.lockHeld = 0
			atomic.StoreUint32(&vm.lockWord, 0)
			vm.curProg = nil
			ret = 0
			err = fmt.Errorf("%w: program %q panicked: %v", ErrRuntimeFault, p.name, rec)
		}
	}()
	if vm.stats == nil {
		if vm.tier == TierWire {
			return vm.exec(p, ctx, nil)
		}
		return vm.execFast(p, ctx, nil)
	}
	ps := vm.stats.prog(p.name)
	vm.curProg = ps
	start := time.Now()
	if vm.tier == TierWire {
		ret, err = vm.exec(p, ctx, ps)
	} else {
		ret, err = vm.execFast(p, ctx, ps)
	}
	ps.RunCnt++
	ps.RunTimeNs += uint64(time.Since(start).Nanoseconds())
	vm.curProg = nil
	return ret, err
}

// mixedTraceProg is the BenchmarkTelemetryOverhead workload: ALU +
// helper calls + map lookups, the shape where added dispatch branches
// would show up.
func mixedTraceProg(tb testing.TB, m *VM) *Program {
	tb.Helper()
	fd := m.RegisterMap(maps.Must(maps.NewArray(8, 8)))
	bb := asm.New()
	bb.MovImm(asm.R0, 0)
	bb.StoreImm(asm.R10, -4, 3, 4)
	for i := 0; i < 8; i++ {
		bb.AddImm(asm.R0, 1)
		bb.Call(HelperGetPrandomU32)
		bb.LoadMap(asm.R1, fd)
		bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
		bb.Call(HelperMapLookup)
	}
	bb.MovImm(asm.R0, 0)
	bb.Exit()
	prog, err := m.Load("mixed", bb.MustProgram())
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// BenchmarkTraceOverhead measures the recorder's cost on the mixed
// micro: /disabled is the gate the <2% assertion guards (no recorder
// attached), /enabled has a full-rate recorder drained between runs.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		m := New()
		prog := mixedTraceProg(b, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(prog, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		m := New()
		prog := mixedTraceProg(b, m)
		rec := trace.NewRecorder(trace.Config{Capacity: 1 << 12})
		m.SetRecorder(rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(prog, nil); err != nil {
				b.Fatal(err)
			}
			if i%(1<<11) == 0 {
				rec.Drain(0)
			}
		}
	})
}

// TestTraceDisabledOverhead asserts the disabled path stays within 2%
// of the pre-trace baseline on the mixed micro. Best-of-minimum over a
// few attempts absorbs scheduler noise; the comparison is Run (with the
// trace gate compiled in) against runBaseline (the literal pre-trace
// Run body) on the same VM and program.
func TestTraceDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	m := New()
	prog := mixedTraceProg(t, m)

	measure := func(run func(*Program, []byte) (uint64, error)) float64 {
		best := 0.0
		for attempt := 0; attempt < 3; attempt++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := run(prog, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	for attempt := 1; ; attempt++ {
		base := measure(m.runBaseline)
		traced := measure(m.Run)
		ratio := traced / base
		t.Logf("attempt %d: baseline %.1f ns/op, traced-gate %.1f ns/op, ratio %.4f", attempt, base, traced, ratio)
		if ratio <= 1.02 {
			return
		}
		if attempt >= 3 {
			t.Fatalf("disabled-trace path is %.2f%% over the pre-trace baseline (budget 2%%)", (ratio-1)*100)
		}
	}
}
