package maps

import (
	"encoding/binary"
	"fmt"
)

// Per-CPU hash maps, modeling BPF_MAP_TYPE_PERCPU_HASH and
// BPF_MAP_TYPE_LRU_PERCPU_HASH: ncpu fully private copies (index,
// arenas, and — for the LRU variant — recency state), so concurrent
// shards never touch shared map state. Two access modes coexist:
//
//   - VM-sequential: SetCPU selects the copy subsequent Map ops
//     address, exactly like PerCPUArray (the replay harness flips it
//     per shard when running shards in sequence).
//   - Concurrent: CPU(i) hands out the i-th copy itself; ParallelRun
//     gives each shard goroutine its own fixed-CPU view and no two
//     goroutines share any mutable state.
//
// Reads that need a cross-CPU total go through MergeLookup, the
// explicit merge-on-read aggregation path — the userspace-side
// bpf_map_lookup_elem semantics, where the syscall returns all per-CPU
// values and the caller folds them.

// MergeFunc folds one CPU's stored value into the accumulator. acc and
// lane are both ValueSize bytes; acc starts zeroed.
type MergeFunc func(acc, lane []byte)

// AddU32Lanes is the canonical counter merge: the value is treated as a
// vector of little-endian uint32 lanes, summed lane-wise.
func AddU32Lanes(acc, lane []byte) {
	for off := 0; off+4 <= len(acc) && off+4 <= len(lane); off += 4 {
		s := binary.LittleEndian.Uint32(acc[off:]) + binary.LittleEndian.Uint32(lane[off:])
		binary.LittleEndian.PutUint32(acc[off:], s)
	}
}

// AddU64Lanes sums little-endian uint64 lanes.
func AddU64Lanes(acc, lane []byte) {
	for off := 0; off+8 <= len(acc) && off+8 <= len(lane); off += 8 {
		s := binary.LittleEndian.Uint64(acc[off:]) + binary.LittleEndian.Uint64(lane[off:])
		binary.LittleEndian.PutUint64(acc[off:], s)
	}
}

func validCPUs(ncpu int) error {
	if ncpu <= 0 || ncpu > 4096 {
		return fmt.Errorf("%w: percpu hash over %d cpus", ErrConfig, ncpu)
	}
	return nil
}

// --- PerCPUHash ---

// PerCPUHash is a hash map with one private copy per CPU.
type PerCPUHash struct {
	per []HashMap
	cpu int
}

// NewPerCPUHash creates a per-CPU hash with ncpu private copies.
func NewPerCPUHash(keySize, valueSize, maxEntries, ncpu int) (*PerCPUHash, error) {
	if err := validCPUs(ncpu); err != nil {
		return nil, err
	}
	p := &PerCPUHash{per: make([]HashMap, ncpu)}
	for i := range p.per {
		m, err := NewHash(keySize, valueSize, maxEntries)
		if err != nil {
			return nil, err
		}
		p.per[i] = m
	}
	return p, nil
}

// SetCPU selects which per-CPU copy subsequent operations address.
func (p *PerCPUHash) SetCPU(cpu int) {
	if cpu < 0 || cpu >= len(p.per) {
		panic("maps: SetCPU out of range")
	}
	p.cpu = cpu
}

// NumCPU returns the number of per-CPU copies.
func (p *PerCPUHash) NumCPU() int { return len(p.per) }

// CPU returns the i-th private copy itself, for shard goroutines that
// own one CPU outright and must not share the selector.
func (p *PerCPUHash) CPU(i int) HashMap { return p.per[i] }

func (p *PerCPUHash) Type() Type                 { return TypePerCPUHash }
func (p *PerCPUHash) KeySize() int               { return p.per[0].KeySize() }
func (p *PerCPUHash) ValueSize() int             { return p.per[0].ValueSize() }
func (p *PerCPUHash) MaxEntries() int            { return p.per[0].MaxEntries() }
func (p *PerCPUHash) Lookup(key []byte) []byte   { return p.per[p.cpu].Lookup(key) }
func (p *PerCPUHash) Update(key, v []byte) error { return p.per[p.cpu].Update(key, v) }
func (p *PerCPUHash) Delete(key []byte) error    { return p.per[p.cpu].Delete(key) }

// Len returns the total live entries across all CPUs. A key present on
// k CPUs counts k times: each copy is an independent table.
func (p *PerCPUHash) Len() int {
	n := 0
	for _, m := range p.per {
		n += m.Len()
	}
	return n
}

// MergeLookup folds every CPU's value for key into out (ValueSize
// bytes, zeroed first) using merge. Returns false when no CPU holds the
// key, leaving out zeroed.
func (p *PerCPUHash) MergeLookup(key, out []byte, merge MergeFunc) bool {
	clear(out)
	found := false
	for _, m := range p.per {
		if v := m.Lookup(key); v != nil {
			merge(out, v)
			found = true
		}
	}
	return found
}

// ArenaMap support: one arena per CPU; lookups resolve into the
// currently selected CPU's arena.

func (p *PerCPUHash) ArenaCount() int    { return len(p.per) }
func (p *PerCPUHash) Arena(i int) []byte { return p.per[i].Arena(0) }

// LookupArena resolves key in the current CPU's copy.
func (p *PerCPUHash) LookupArena(key []byte) (int, int, bool) {
	_, off, ok := p.per[p.cpu].LookupArena(key)
	return p.cpu, off, ok
}

// --- PerCPULRUHash ---

// PerCPULRUHash is an LRU hash with one private copy per CPU. Like the
// kernel's BPF_MAP_TYPE_LRU_PERCPU_HASH, each CPU evicts independently
// from its own recency list, so under memory pressure the set of
// surviving flows depends on how traffic was sharded — a property, not
// a bug, and exactly why merged estimates are only shard-invariant
// while no copy evicts.
type PerCPULRUHash struct {
	per []*LRUHash
	cpu int
}

// NewPerCPULRUHash creates a per-CPU LRU hash with ncpu private copies.
func NewPerCPULRUHash(keySize, valueSize, maxEntries, ncpu int) (*PerCPULRUHash, error) {
	if err := validCPUs(ncpu); err != nil {
		return nil, err
	}
	p := &PerCPULRUHash{per: make([]*LRUHash, ncpu)}
	for i := range p.per {
		m, err := NewLRUHash(keySize, valueSize, maxEntries)
		if err != nil {
			return nil, err
		}
		p.per[i] = m
	}
	return p, nil
}

// SetCPU selects which per-CPU copy subsequent operations address.
func (p *PerCPULRUHash) SetCPU(cpu int) {
	if cpu < 0 || cpu >= len(p.per) {
		panic("maps: SetCPU out of range")
	}
	p.cpu = cpu
}

// NumCPU returns the number of per-CPU copies.
func (p *PerCPULRUHash) NumCPU() int { return len(p.per) }

// CPU returns the i-th private copy, for fixed-CPU shard goroutines.
func (p *PerCPULRUHash) CPU(i int) *LRUHash { return p.per[i] }

func (p *PerCPULRUHash) Type() Type                 { return TypePerCPULRUHash }
func (p *PerCPULRUHash) KeySize() int               { return p.per[0].KeySize() }
func (p *PerCPULRUHash) ValueSize() int             { return p.per[0].ValueSize() }
func (p *PerCPULRUHash) MaxEntries() int            { return p.per[0].MaxEntries() }
func (p *PerCPULRUHash) Lookup(key []byte) []byte   { return p.per[p.cpu].Lookup(key) }
func (p *PerCPULRUHash) Update(key, v []byte) error { return p.per[p.cpu].Update(key, v) }
func (p *PerCPULRUHash) Delete(key []byte) error    { return p.per[p.cpu].Delete(key) }

// Len returns the total live entries across all CPUs.
func (p *PerCPULRUHash) Len() int {
	n := 0
	for _, m := range p.per {
		n += m.Len()
	}
	return n
}

// Evictions sums the eviction counters of all CPUs, for watermark
// probes that watch churn on the aggregate.
func (p *PerCPULRUHash) Evictions() uint64 {
	var n uint64
	for _, m := range p.per {
		n += m.Evictions
	}
	return n
}

// MergeLookup folds every CPU's value for key into out using merge. It
// reads through Peek so control-plane aggregation never perturbs the
// recency order the datapath's eviction decisions depend on.
func (p *PerCPULRUHash) MergeLookup(key, out []byte, merge MergeFunc) bool {
	clear(out)
	found := false
	for _, m := range p.per {
		if v := m.Peek(key); v != nil {
			merge(out, v)
			found = true
		}
	}
	return found
}

// ArenaMap support.

func (p *PerCPULRUHash) ArenaCount() int    { return len(p.per) }
func (p *PerCPULRUHash) Arena(i int) []byte { return p.per[i].Arena(0) }

// LookupArena resolves key in the current CPU's copy (refreshing its
// recency there, as the datapath lookup should).
func (p *PerCPULRUHash) LookupArena(key []byte) (int, int, bool) {
	_, off, ok := p.per[p.cpu].LookupArena(key)
	return p.cpu, off, ok
}
