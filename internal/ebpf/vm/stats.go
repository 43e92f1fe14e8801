package vm

import (
	"fmt"
	"sort"
	"time"

	"enetstl/internal/telemetry"
)

// Runtime statistics, mirroring the kernel's `sysctl
// kernel.bpf_stats_enabled` plumbing: disabled by default and free when
// disabled, a per-program run_cnt/run_time_ns plus call- and
// instruction-level attribution when enabled. Stats live on the
// instance, as bpf_prog_stats live on the program: whoever builds a VM
// attaches one with SetStats (VMs are single-goroutine, so counting is
// plain arithmetic), and a fresh VM has none.

// NumOpClasses is the number of eBPF instruction classes (low 3 opcode
// bits), the granularity of the opcode-mix histogram.
const NumOpClasses = 8

var opClassNames = [NumOpClasses]string{
	"ld", "ldx", "st", "stx", "alu32", "jmp", "jmp32", "alu64",
}

// OpClassName names an instruction class index (ld, ldx, st, stx,
// alu32, jmp, jmp32, alu64).
func OpClassName(class int) string {
	if class < 0 || class >= NumOpClasses {
		return fmt.Sprintf("class%d", class)
	}
	return opClassNames[class]
}

// CallStats accumulates calls into one helper or kfunc.
type CallStats struct {
	Name  string
	Count uint64
	Ns    uint64 // cumulative native execution time
}

// ProgStats accumulates per-program runtime counters — the analogue of
// bpf_prog_stats (run_cnt, run_time_ns) extended with instruction and
// call attribution.
type ProgStats struct {
	RunCnt    uint64
	RunTimeNs uint64
	// Insns is instructions retired (LD_IMM64 pairs count once, as they
	// dispatch once).
	Insns   uint64
	OpClass [NumOpClasses]uint64
	Helpers map[int32]*CallStats
	Kfuncs  map[int32]*CallStats
}

func (ps *ProgStats) callStats(m map[int32]*CallStats, id int32, name string) *CallStats {
	cs, ok := m[id]
	if !ok {
		cs = &CallStats{Name: name}
		m[id] = cs
	}
	return cs
}

func (ps *ProgStats) clone() ProgStats {
	out := *ps
	out.Helpers = make(map[int32]*CallStats, len(ps.Helpers))
	for id, cs := range ps.Helpers {
		c := *cs
		out.Helpers[id] = &c
	}
	out.Kfuncs = make(map[int32]*CallStats, len(ps.Kfuncs))
	for id, cs := range ps.Kfuncs {
		c := *cs
		out.Kfuncs[id] = &c
	}
	return out
}

// MapStats counts map operations issued by programs through the map
// helpers. Miss counts lookups that found no element.
type MapStats struct {
	Type   string
	Lookup uint64
	Update uint64
	Delete uint64
	Miss   uint64
}

type mapKey struct {
	fd  int32
	typ string
}

// Stats is one collection domain: usually one VM, or the merge of many.
// It is not safe for concurrent mutation; per-CPU VMs each own one and
// merged views are built after the runs complete.
type Stats struct {
	progs map[string]*ProgStats
	maps  map[mapKey]*MapStats
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{
		progs: make(map[string]*ProgStats),
		maps:  make(map[mapKey]*MapStats),
	}
}

func (s *Stats) prog(name string) *ProgStats {
	ps, ok := s.progs[name]
	if !ok {
		ps = &ProgStats{
			Helpers: make(map[int32]*CallStats),
			Kfuncs:  make(map[int32]*CallStats),
		}
		s.progs[name] = ps
	}
	return ps
}

func (s *Stats) mapStats(fd int32, typ string) *MapStats {
	k := mapKey{fd: fd, typ: typ}
	ms, ok := s.maps[k]
	if !ok {
		ms = &MapStats{Type: typ}
		s.maps[k] = ms
	}
	return ms
}

// RecordRun accounts one program invocation that ran outside the
// interpreter (native "Kernel"-flavour baselines wrapped for parity
// with VM-backed instances).
func (s *Stats) RecordRun(prog string, d time.Duration) {
	ps := s.prog(prog)
	ps.RunCnt++
	ps.RunTimeNs += uint64(d.Nanoseconds())
}

// ProgNames returns the programs observed, sorted.
func (s *Stats) ProgNames() []string {
	names := make([]string, 0, len(s.progs))
	for n := range s.progs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProgSnapshot returns a deep copy of one program's counters.
func (s *Stats) ProgSnapshot(name string) (ProgStats, bool) {
	ps, ok := s.progs[name]
	if !ok {
		return ProgStats{}, false
	}
	return ps.clone(), true
}

// Merge adds other's counters into s (map stats merge by fd+type, so
// same-shaped VMs aggregate cleanly; distinct VMs sharing an fd sum,
// which a merged view accepts by design).
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	for name, ops := range other.progs {
		ps := s.prog(name)
		ps.RunCnt += ops.RunCnt
		ps.RunTimeNs += ops.RunTimeNs
		ps.Insns += ops.Insns
		for i := range ps.OpClass {
			ps.OpClass[i] += ops.OpClass[i]
		}
		for id, cs := range ops.Helpers {
			dst := ps.callStats(ps.Helpers, id, cs.Name)
			dst.Count += cs.Count
			dst.Ns += cs.Ns
		}
		for id, cs := range ops.Kfuncs {
			dst := ps.callStats(ps.Kfuncs, id, cs.Name)
			dst.Count += cs.Count
			dst.Ns += cs.Ns
		}
	}
	for k, oms := range other.maps {
		ms := s.mapStats(k.fd, k.typ)
		ms.Lookup += oms.Lookup
		ms.Update += oms.Update
		ms.Delete += oms.Delete
		ms.Miss += oms.Miss
	}
}

// Publish writes every counter into reg as labelled metric families.
// Metric names follow the kernel's bpf_stats vocabulary: vm_run_cnt,
// vm_run_time_ns, plus instruction/call/map attribution.
func (s *Stats) Publish(reg *telemetry.Registry) {
	for _, name := range s.ProgNames() {
		ps := s.progs[name]
		prog := telemetry.L("prog", name)
		reg.Counter("vm_run_cnt", prog).Add(ps.RunCnt)
		reg.Counter("vm_run_time_ns", prog).Add(ps.RunTimeNs)
		reg.Counter("vm_insns_total", prog).Add(ps.Insns)
		for c, n := range ps.OpClass {
			if n == 0 {
				continue
			}
			reg.Counter("vm_opcode_class_total", prog, telemetry.L("class", OpClassName(c))).Add(n)
		}
		for _, cs := range ps.Helpers {
			l := telemetry.L("helper", cs.Name)
			reg.Counter("vm_helper_calls_total", prog, l).Add(cs.Count)
			reg.Counter("vm_helper_time_ns_total", prog, l).Add(cs.Ns)
		}
		for _, cs := range ps.Kfuncs {
			l := telemetry.L("kfunc", cs.Name)
			reg.Counter("vm_kfunc_calls_total", prog, l).Add(cs.Count)
			reg.Counter("vm_kfunc_time_ns_total", prog, l).Add(cs.Ns)
		}
	}
	for k, ms := range s.maps {
		ml := []telemetry.Label{
			telemetry.L("map", fmt.Sprintf("fd%d", k.fd)),
			telemetry.L("type", k.typ),
		}
		for _, op := range []struct {
			name string
			n    uint64
		}{
			{"lookup", ms.Lookup}, {"update", ms.Update}, {"delete", ms.Delete},
		} {
			args := append(append([]telemetry.Label(nil), ml...), telemetry.L("op", op.name))
			reg.Counter("vm_map_ops_total", args...).Add(op.n)
		}
		reg.Counter("vm_map_misses_total", ml...).Add(ms.Miss)
	}
	reg.SetHelp("vm_run_cnt", "program invocations (bpf_prog_stats run_cnt)")
	reg.SetHelp("vm_run_time_ns", "cumulative program execution time (run_time_ns)")
	reg.SetHelp("vm_insns_total", "bytecode instructions retired")
	reg.SetHelp("vm_opcode_class_total", "instructions retired by opcode class")
	reg.SetHelp("vm_helper_calls_total", "helper invocations by program")
	reg.SetHelp("vm_helper_time_ns_total", "cumulative native time inside helpers")
	reg.SetHelp("vm_kfunc_calls_total", "kfunc invocations by program")
	reg.SetHelp("vm_kfunc_time_ns_total", "cumulative native time inside kfuncs")
	reg.SetHelp("vm_map_ops_total", "map operations via the map helpers")
	reg.SetHelp("vm_map_misses_total", "map lookups that found no element")
}

// --- Per-VM switch ---

// SetStats attaches an existing Stats (e.g. one shared across the VMs
// of a multi-program app). nil disables collection.
func (vm *VM) SetStats(s *Stats) { vm.stats = s }

// Stats returns the attached Stats, or nil when disabled.
func (vm *VM) Stats() *Stats { return vm.stats }
