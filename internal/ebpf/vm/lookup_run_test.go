package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

// The lookup run (kRunLookup / kRunLookupArray) against the wire loop:
// every way into, through and out of the run must be indistinguishable
// from executing its four or five wire instructions one at a time.

// runShape is one lookup call site to build: which map backs it, how the
// null check follows the call, and whether the looked-up key is present.
type runShape struct {
	array bool   // maps.Array (typed run) or maps.Hash (generic run)
	check string // "jne", "jeq": folded; "none": the call is followed by a mov
	hit   bool
}

func (s runShape) String() string {
	m := "hash"
	if s.array {
		m = "array"
	}
	return fmt.Sprintf("%s/%s/hit=%v", m, s.check, s.hit)
}

const runPrefix = 3 // instructions retired before the run's head

// setup registers the shape's map (fd 0) on m with key 3 present.
func (s runShape) setup(m *vm.VM) {
	if s.array {
		arr := maps.Must(maps.NewArray(8, 8))
		arr.Data()[3*8] = 0x5a
		m.RegisterMap(arr)
		return
	}
	h, err := maps.NewHash(4, 8, 16)
	if err != nil {
		panic(err)
	}
	if err := h.Update([]byte{3, 0, 0, 0}, []byte{0x5a, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		panic(err)
	}
	m.RegisterMap(h)
}

// program builds: a three-instruction prefix (so the head is not pc 0),
// the call site, and arms that leave distinguishable state in r0, r7 and
// the stack.
func (s runShape) program() []isa.Instruction {
	key := int32(99)
	if s.hit {
		key = 3
	}
	b := asm.New()
	b.MovImm(asm.R7, 11)
	b.MovImm(asm.R3, 33) // a live R3: the call must still clobber it
	b.StoreImm(asm.R10, -4, key, 4)
	b.LoadMap(asm.R1, 0) // run head
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	switch s.check {
	case "jne":
		b.JmpImm(asm.JNE, asm.R0, 0, "hit")
		b.MovImm(asm.R0, 1000).Exit()
		b.Label("hit")
		b.Load(asm.R7, asm.R0, 0, 8)
		b.StoreImm(asm.R10, -16, 77, 8)
		b.MovImm(asm.R0, 2000).Exit()
	case "jeq":
		b.JmpImm(asm.JEQ, asm.R0, 0, "miss")
		b.Load(asm.R7, asm.R0, 0, 8)
		b.StoreImm(asm.R10, -16, 77, 8)
		b.MovImm(asm.R0, 2000).Exit()
		b.Label("miss")
		b.MovImm(asm.R0, 1000).Exit()
	default:
		b.Mov(asm.R8, asm.R0) // no null check adjacent to the call
		b.JmpImm(asm.JEQ, asm.R8, 0, "miss")
		b.Load(asm.R7, asm.R8, 0, 8)
		b.Label("miss")
		b.Mov(asm.R0, asm.R7).Exit()
	}
	return b.MustProgram()
}

func allRunShapes() []runShape {
	var out []runShape
	for _, array := range []bool{true, false} {
		for _, check := range []string{"jne", "jeq", "none"} {
			for _, hit := range []bool{true, false} {
				out = append(out, runShape{array, check, hit})
			}
		}
	}
	return out
}

// runBothStack is runBoth plus the stack image, which must agree on
// every outcome — an exhausted budget included.
func runBothStack(t *testing.T, fast, wire *vm.VM, fp, wp *vm.Program) (uint64, error) {
	t.Helper()
	clear(fast.Stack())
	clear(wire.Stack())
	ret, err := runBoth(t, fast, wire, fp, wp, nil)
	if !bytes.Equal(fast.Stack(), wire.Stack()) {
		t.Fatalf("stack divergence:\n  fast: %x\n  wire: %x", fast.Stack()[vm.StackSize-32:], wire.Stack()[vm.StackSize-32:])
	}
	return ret, err
}

func TestLookupRunFormed(t *testing.T) {
	for _, s := range allRunShapes() {
		m := vm.New()
		s.setup(m)
		p, err := m.Load("p", s.program())
		if err != nil {
			t.Fatal(err)
		}
		want := []vm.LookupRun{{PC: runPrefix, Array: s.array, Folded: s.check != "none"}}
		if got := p.LookupRuns(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: runs = %+v, want %+v", s, got, want)
		}
	}
}

// TestLookupRunBudgetSweep: every budget from one short of the run's
// entry to past its end, then the full run, on both loops.
func TestLookupRunBudgetSweep(t *testing.T) {
	for _, s := range allRunShapes() {
		t.Run(s.String(), func(t *testing.T) {
			prog := s.program()
			fast, wire, fp, wp := newPair(t, prog, s.setup)
			want := uint64(2000)
			switch {
			case s.check == "none" && s.hit:
				want = 0x5a
			case s.check == "none":
				want = 11
			case !s.hit:
				want = 1000
			}
			if got, err := runBothStack(t, fast, wire, fp, wp); err != nil || got != want {
				t.Fatalf("full budget: got %d, %v; want %d", got, err, want)
			}
			for budget := runPrefix - 1; budget <= runPrefix+6; budget++ {
				fast, wire, fp, wp := newPair(t, prog, s.setup)
				fast.Budget, wire.Budget = budget, budget
				runBothStack(t, fast, wire, fp, wp)
			}
		})
	}
}

// TestLookupRunInteriorTargets: a branch landing on any slot past the
// head must find the standalone decoding there. Each program pre-loads
// what the skipped part of the call site would have set up and branches
// over it. The idiom runs get the same treatment: a branch from the
// entry to any of their wire instructions past the head leaves the run
// unformed, and the program runs as the wire loop runs it.
func TestLookupRunInteriorTargets(t *testing.T) {
	for _, r := range idiomRuns() {
		if r.kind == "" {
			continue
		}
		for land := 1; land < len(r.run); land++ {
			t.Run(fmt.Sprintf("%s/insn%d", r.name, land), func(t *testing.T) {
				prog := r.program(land)
				fast, wire, fp, wp := newPair(t, prog, r.setup)
				at := 1 + r.pc(land) // program(land) starts with its branch
				for head, slots := range fp.IdiomRuns() {
					if head < at && at < head+slots {
						t.Fatalf("the run at %d covers %d slots across the branch target %d", head, slots, at)
					}
				}
				runBoth(t, fast, wire, fp, wp, nil)
				full := int(wire.InsnCount)
				for budget := 1; budget <= full; budget++ {
					fast, wire, fp, wp := newPair(t, prog, r.setup)
					fast.Budget, wire.Budget = budget, budget
					runBoth(t, fast, wire, fp, wp, nil)
				}
			})
		}
	}

	// slot: offset of the landing instruction from the head (1 is the
	// ld_imm64's second half: a malformed landing both loops reject).
	for _, slot := range []int{1, 2, 3, 4, 5} {
		for _, array := range []bool{true, false} {
			s := runShape{array: array, hit: true}
			t.Run(fmt.Sprintf("slot%d/array=%v", slot, array), func(t *testing.T) {
				b := asm.New()
				b.StoreImm(asm.R10, -4, 3, 4)
				b.LoadMap(asm.R1, 0)
				b.Mov(asm.R2, asm.R10)
				b.AddImm(asm.R2, -4)
				b.MovImm(asm.R0, 5)
				if slot == 3 {
					b.AddImm(asm.R2, 4) // landing on the add: r2 = r10 before it
				}
				b.MovImm(asm.R6, 1)
				if slot == 1 {
					// No label can name a second half; aim the offset by hand.
					b.Raw(isa.Instruction{Op: isa.ClassJMP | isa.JmpJEQ, Dst: isa.R6, Imm: 1, Off: 1})
				} else {
					b.JmpImm(asm.JEQ, asm.R6, 1, "land")
				}
				b.LoadMap(asm.R1, 0) // head
				if slot == 2 {
					b.Label("land")
				}
				b.Mov(asm.R2, asm.R10)
				if slot == 3 {
					b.Label("land")
				}
				b.AddImm(asm.R2, -4)
				if slot == 4 {
					b.Label("land")
				}
				b.Call(vm.HelperMapLookup)
				if slot == 5 {
					b.Label("land")
				}
				b.JmpImm(asm.JNE, asm.R0, 0, "hit")
				b.MovImm(asm.R0, 1000).Exit()
				b.Label("hit")
				b.MovImm(asm.R0, 2000).Exit()
				prog := b.MustProgram()

				fast, wire, fp, wp := newPair(t, prog, s.setup)
				runs := fp.LookupRuns()
				switch {
				case slot < 5 && len(runs) != 0:
					t.Fatalf("run formed across a branch target: %+v", runs)
				case slot == 5 && (len(runs) != 1 || runs[0].Folded):
					t.Fatalf("runs = %+v, want one run without the null check folded", runs)
				}
				got, err := runBothStack(t, fast, wire, fp, wp)
				switch {
				case slot == 1 && err == nil:
					t.Fatal("landing inside the ld_imm64 ran")
				case slot > 1 && (err != nil || got != 2000):
					t.Fatalf("got %d, %v; want 2000", got, err)
				}
				full := int(wire.InsnCount)
				for budget := 1; budget <= full; budget++ {
					fast, wire, fp, wp := newPair(t, prog, s.setup)
					fast.Budget, wire.Budget = budget, budget
					runBothStack(t, fast, wire, fp, wp)
				}
			})
		}
	}
}

// observation is everything an operator can see of a replay.
type observation struct {
	verdicts []uint64
	insns    uint64
	opClass  [vm.NumOpClasses]uint64
	lookups  uint64
	mapLines []string
	events   []trace.Event
}

// observe replays every shape's program n times on one machine per tier
// and returns what each plane recorded.
func observe(t *testing.T, tier vm.Tier, s runShape, n int, arm func(m *vm.VM)) observation {
	t.Helper()
	m := vm.New()
	m.SetTier(tier)
	s.setup(m)
	p, err := m.Load("p", s.program())
	if err != nil {
		t.Fatal(err)
	}
	arm(m)
	var o observation
	for i := 0; i < n; i++ {
		v, err := m.Run(p, []byte("0123456789abcdefXYZ"))
		if err != nil {
			t.Fatal(err)
		}
		o.verdicts = append(o.verdicts, v)
	}
	if st := m.Stats(); st != nil {
		ps, _ := st.ProgSnapshot("p")
		o.insns, o.opClass = ps.Insns, ps.OpClass
		o.lookups = ps.Helpers[vm.HelperMapLookup].Count
		reg := telemetry.NewRegistry()
		st.Publish(reg)
		for _, line := range bytes.Split([]byte(reg.Text()), []byte("\n")) {
			if bytes.HasPrefix(line, []byte("vm_map_")) {
				o.mapLines = append(o.mapLines, string(line))
			}
		}
	}
	if rec := m.Recorder(); rec != nil {
		for _, ev := range rec.Drain(0) {
			ev.LatNs, ev.TS = 0, 0
			o.events = append(o.events, ev)
		}
	}
	return o
}

// TestLookupRunObservedLikeWire: with a plane attached after Load — a
// fault decorator on the map, stats, a recorder sampling every packet —
// the fast loop reports what the wire loop reports.
func TestLookupRunObservedLikeWire(t *testing.T) {
	arms := map[string]func() func(m *vm.VM){
		"faulty": func() func(m *vm.VM) {
			return func(m *vm.VM) {
				calls := 0
				m.WrapMaps(func(inner maps.ArenaMap) maps.ArenaMap {
					return &maps.Faulty{M: inner, MissLookup: func() bool { calls++; return calls%2 == 0 }}
				})
			}
		},
		"stats": func() func(m *vm.VM) { return func(m *vm.VM) { m.SetStats(vm.NewStats()) } },
		"recorder": func() func(m *vm.VM) {
			return func(m *vm.VM) { m.SetRecorder(trace.NewRecorder(trace.Config{Capacity: 256})) }
		},
		"stats+faulty": func() func(m *vm.VM) {
			return func(m *vm.VM) {
				m.SetStats(vm.NewStats())
				m.WrapMaps(func(inner maps.ArenaMap) maps.ArenaMap {
					return &maps.Faulty{M: inner, MissLookup: func() bool { return true }}
				})
			}
		},
	}
	for name, arm := range arms {
		for _, s := range allRunShapes() {
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				fast := observe(t, vm.TierPredecoded, s, 6, arm())
				wire := observe(t, vm.TierWire, s, 6, arm())
				if !reflect.DeepEqual(fast, wire) {
					t.Fatalf("observed divergence:\n  fast: %+v\n  wire: %+v", fast, wire)
				}
				if name == "faulty" && s.hit && s.check != "none" {
					if want := []uint64{2000, 1000, 2000, 1000, 2000, 1000}; !reflect.DeepEqual(fast.verdicts, want) {
						t.Fatalf("injected misses not seen: verdicts %v, want %v", fast.verdicts, want)
					}
				}
				if name == "stats" && fast.lookups != 6 {
					t.Fatalf("stats counted %d lookups, want 6", fast.lookups)
				}
				if name == "recorder" && len(fast.events) != 6*3 {
					t.Fatalf("recorder holds %d events, want packet_in, map_op, verdict per packet", len(fast.events))
				}
			})
		}
	}
}

// TestLookupRunCallsReplacedHelper: a helper registered under
// HelperMapLookup after Load is the one a run calls, on every tier.
func TestLookupRunCallsReplacedHelper(t *testing.T) {
	for _, s := range allRunShapes() {
		for _, tier := range []vm.Tier{vm.TierPredecoded, vm.TierWire, vm.TierJIT} {
			m := vm.New()
			m.SetTier(tier)
			s.setup(m)
			p, err := m.Load("p", s.program())
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			m.RegisterHelper(vm.HelperMapLookup, func(_ *vm.VM, _, _, _, _, _ uint64) (uint64, error) {
				calls++
				return 0, nil // always a miss
			})
			want := uint64(1000)
			if s.check == "none" {
				want = 11
			}
			if got, err := m.Run(p, nil); err != nil || got != want || calls != 1 {
				t.Errorf("%v on %v: got %d, %v after %d calls of the replacement; want %d after 1", s, tier, got, err, calls, want)
			}
		}
	}
}

// TestLookupRunHelperError: a faulting lookup inside a run is reported
// at the call's pc with the call's text, after charging what the wire
// loop charges.
func TestLookupRunHelperError(t *testing.T) {
	// The pointer is no map: ld_imm64 of a plain scalar into r1.
	b := asm.New()
	b.MovImm(asm.R7, 1)
	b.LoadImm64(asm.R1, 0x1234)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "hit")
	b.Label("hit")
	b.Exit()
	fast, wire, fp, wp := newPair(t, b.MustProgram(), nil)
	if runs := fp.LookupRuns(); len(runs) != 1 || runs[0].Array {
		t.Fatalf("runs = %+v, want one generic run", runs)
	}
	if _, err := runBothStack(t, fast, wire, fp, wp); err == nil {
		t.Fatal("lookup through a scalar succeeded")
	}
}
