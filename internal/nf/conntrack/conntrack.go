// Package conntrack implements per-flow connection tracking over an
// LRU hash map — the Katran/Cilium-style datapath pattern where every
// new flow inserts an entry with bpf_map_update_elem and every known
// flow bumps its counters in place. It is the one NF in the catalog
// whose hot path exercises the map update failure surface (-E2BIG /
// -ENOMEM from bpf_map_update_elem): when the table refuses the
// insert, the flow is shed with XDP_DROP rather than aborted.
//
//   - Kernel: native Go over the same maps.LRUHash.
//   - EBPF: bytecode; map lookup + map update, no kfuncs needed (this
//     NF is exactly the kind the survey finds pure eBPF sufficient for).
package conntrack

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
)

// ValSize is the tracked-entry size: [pkts u64][flags u64].
const ValSize = 16

// Verdicts.
const (
	Tracked = vm.XDPPass // flow known or inserted
	Shed    = vm.XDPDrop // table refused the insert (map full / fault)
)

// Config sizes the flow table.
type Config struct {
	Entries int
}

func (c Config) validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("conntrack: entries %d must be positive", c.Entries)
	}
	return nil
}

// Tracker is one built instance.
type Tracker struct {
	nf.Instance
	cfg Config

	m   maps.ArenaMap // kernel flavour (LRU hash, possibly decorated)
	lru *maps.LRUHash // both flavours: the undecorated flow table
}

// New builds the NF in the requested flavour. The ENetSTL flavour is
// intentionally absent: the NF needs no kfuncs, which is the point.
func New(flavor nf.Flavor, cfg Config) (*Tracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tracker{cfg: cfg}
	switch flavor {
	case nf.Kernel:
		t.lru = maps.Must(maps.NewLRUHash(nf.KeyLen, ValSize, cfg.Entries))
		t.m = t.lru
		t.Instance = &nf.NativeInstance{NFName: "conntrack", Fn: t.track}
		return t, nil
	case nf.EBPF:
		machine := vm.New()
		lru := maps.Must(maps.NewLRUHash(nf.KeyLen, ValSize, cfg.Entries))
		t.lru = lru
		fd := machine.RegisterMap(lru)
		ins, err := buildProgram(fd).Program()
		if err != nil {
			return nil, fmt.Errorf("conntrack: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "conntrack", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		t.Instance = nf.NewVMInstance("conntrack", flavor, machine, p)
		return t, nil
	case nf.ENetSTL:
		return nil, fmt.Errorf("conntrack: no eNetSTL flavour: the NF needs only maps and helpers")
	}
	return nil, fmt.Errorf("conntrack: unknown flavor %v", flavor)
}

// NewOnCPU builds the NF over one CPU's private copy of a shared
// per-CPU LRU flow table — the BPF_MAP_TYPE_LRU_PERCPU_HASH deployment
// shape, where every RSS shard owns its copy outright and cross-shard
// totals come from merge-on-read aggregation (p.MergeLookup), never
// from shared datapath state. The returned tracker's degrade and probe
// surfaces address only its own copy.
func NewOnCPU(flavor nf.Flavor, p *maps.PerCPULRUHash, cpu int) (*Tracker, error) {
	if p == nil {
		return nil, fmt.Errorf("conntrack: nil per-cpu table")
	}
	if cpu < 0 || cpu >= p.NumCPU() {
		return nil, fmt.Errorf("conntrack: cpu %d outside table's %d copies", cpu, p.NumCPU())
	}
	t := &Tracker{cfg: Config{Entries: p.MaxEntries()}}
	view := p.CPU(cpu)
	switch flavor {
	case nf.Kernel:
		t.lru = view
		t.m = view
		t.Instance = &nf.NativeInstance{NFName: "conntrack", Fn: t.track}
		return t, nil
	case nf.EBPF:
		machine := vm.New()
		t.lru = view
		fd := machine.RegisterMap(view)
		ins, err := buildProgram(fd).Program()
		if err != nil {
			return nil, fmt.Errorf("conntrack: assemble: %w", err)
		}
		prog, err := verifier.LoadAndVerify(machine, "conntrack", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		t.Instance = nf.NewVMInstance("conntrack", flavor, machine, prog)
		return t, nil
	}
	return nil, fmt.Errorf("conntrack: per-cpu variant supports Kernel and EBPF, not %v", flavor)
}

// Map returns the kernel flavour's backing map (nil for EBPF, whose
// map is reached through the VM).
func (t *Tracker) Map() maps.ArenaMap { return t.m }

// VM exposes the backing interpreter so harness and tier plumbing see
// through the Tracker; nil for the kernel flavour.
func (t *Tracker) VM() *vm.VM {
	if v, ok := t.Instance.(interface{ VM() *vm.VM }); ok {
		return v.VM()
	}
	return nil
}

// SetMap swaps the kernel flavour's backing map, letting the
// conformance grid's chaos axis decorate it with a fault-injecting
// wrapper.
func (t *Tracker) SetMap(m maps.ArenaMap) { t.m = m }

// LRU returns the undecorated flow table, in both flavours — the
// surface the overload guard's watermark probes and degrade policy
// reach for.
func (t *Tracker) LRU() *maps.LRUHash { return t.lru }

// Degrade is the tracker's opt-in degradation policy: on engage it
// batch-evicts the oldest quarter of the table, restoring insert
// headroom in one sweep so an overloaded update path stops paying one
// eviction per packet (the kernel-LRU "local free list" idea, writ
// coarse). Release is a no-op; the table refills naturally.
func (t *Tracker) Degrade(on bool) {
	if on {
		t.lru.EvictOldest(t.cfg.Entries / 4)
	}
}

// track mirrors the bytecode: bump a known flow in place, insert a new
// one, shed the packet when the table refuses.
func (t *Tracker) track(pkt []byte) uint64 {
	key := pkt[nf.OffKey : nf.OffKey+nf.KeyLen]
	if v := t.m.Lookup(key); v != nil {
		binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
		return uint64(Tracked)
	}
	var val [ValSize]byte
	binary.LittleEndian.PutUint64(val[:], 1)
	if err := t.m.Update(key, val[:]); err != nil {
		return uint64(Shed)
	}
	return uint64(Tracked)
}

// buildProgram emits: copy the flow key to the stack, lookup; on hit
// increment the packet count through the returned value pointer; on
// miss build a fresh entry on the stack and map_update it, shedding
// with XDP_DROP if the update fails.
func buildProgram(fd int32) *asm.Builder {
	b := asm.New()
	b.Mov(asm.R6, asm.R1)
	// Key to stack[-16..-1].
	b.Load(asm.R0, asm.R6, nf.OffKey, 8)
	b.Store(asm.R10, -16, asm.R0, 8)
	b.Load(asm.R0, asm.R6, nf.OffKey+8, 8)
	b.Store(asm.R10, -8, asm.R0, 8)
	// Lookup.
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -16)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JEQ, asm.R0, 0, "miss")
	// Hit: pkts++ in place.
	b.Load(asm.R1, asm.R0, 0, 8)
	b.AddImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 8)
	b.MovImm(asm.R0, int32(Tracked))
	b.Exit()
	// Miss: value [pkts=1, flags=0] at stack[-32..-17], then update.
	b.Label("miss")
	b.MovImm(asm.R0, 1)
	b.Store(asm.R10, -32, asm.R0, 8)
	b.MovImm(asm.R0, 0)
	b.Store(asm.R10, -24, asm.R0, 8)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -16)
	b.Mov(asm.R3, asm.R10).AddImm(asm.R3, -32)
	b.MovImm(asm.R4, 0) // flags (BPF_ANY)
	b.Call(vm.HelperMapUpdate)
	b.JmpImm(asm.JEQ, asm.R0, 0, "inserted")
	b.MovImm(asm.R0, int32(Shed))
	b.Exit()
	b.Label("inserted")
	b.MovImm(asm.R0, int32(Tracked))
	b.Exit()
	return b
}
