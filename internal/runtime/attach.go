package runtime

import (
	"time"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/trace"
)

// VMs collects the machines backing an instance: the instance's own
// and, for pipelines, every stage's (nf.VMs), so every attacher — stats,
// recorders, guards, the daemon, the conformance grid — walks instances
// the same way.
func VMs(inst nf.Instance) []*vm.VM { return nf.VMs(inst) }

// Maps collects the maps an instance holds: everything registered on
// its VMs plus, for a native that owns its map directly (Kernel-flavour
// conntrack), that map.
func Maps(inst nf.Instance) []maps.Map {
	var out []maps.Map
	for _, m := range VMs(inst) {
		for _, mp := range m.Maps() {
			out = append(out, mp)
		}
	}
	if h, ok := inst.(interface{ Map() maps.ArenaMap }); ok {
		if mp := h.Map(); mp != nil {
			out = append(out, mp)
		}
	}
	return out
}

// MapBytes sums the backing-store footprint of the distinct maps in ms
// — the figure quota.map_bytes is held against. Distinct, because the
// copies of a sharded module's per-CPU map are reachable both from the
// shared map and from each shard's VM.
func MapBytes(ms []maps.Map) int {
	seen := make(map[maps.Map]struct{}, len(ms))
	n := 0
	for _, m := range ms {
		if _, dup := seen[m]; !dup {
			seen[m] = struct{}{}
			n += maps.FootprintOf(m)
		}
	}
	return n
}

// AttachStats attaches one shared Stats to every VM backing inst and
// returns it — per-instance metering, so whoever holds the instance
// holds its counters and nothing else retains them. For instances with no VMs (Kernel-flavour
// natives) it returns a fresh Stats the caller can feed through
// Metered.
func AttachStats(inst nf.Instance) *vm.Stats {
	st := vm.NewStats()
	for _, m := range VMs(inst) {
		m.SetStats(st)
	}
	return st
}

// AttachRecorder attaches (or with nil detaches) a flight recorder on
// every VM backing inst.
func AttachRecorder(inst nf.Instance, r *trace.Recorder) {
	for _, m := range VMs(inst) {
		m.SetRecorder(r)
	}
}

// Metered wraps a native (non-VM) instance so run_cnt/run_time_ns
// metering covers every flavour; VM-backed instances are metered by
// their machines and don't need it. It delegates VM()/Stages() so
// downstream attachment sees through it.
type Metered struct {
	nf.Instance
	st *vm.Stats
}

// Meter wraps inst with wall-clock run accounting into st.
func Meter(inst nf.Instance, st *vm.Stats) *Metered {
	return &Metered{Instance: inst, st: st}
}

// Process times the inner instance's handling of one packet.
func (m *Metered) Process(pkt []byte) (uint64, error) {
	start := time.Now()
	ret, err := m.Instance.Process(pkt)
	m.st.RecordRun(m.Instance.Name(), time.Since(start))
	return ret, err
}

// VM delegates to the inner instance.
func (m *Metered) VM() *vm.VM {
	if v, ok := m.Instance.(interface{ VM() *vm.VM }); ok {
		return v.VM()
	}
	return nil
}

// Stages delegates to the inner instance.
func (m *Metered) Stages() []nf.Instance {
	if s, ok := m.Instance.(interface{ Stages() []nf.Instance }); ok {
		return s.Stages()
	}
	return nil
}
