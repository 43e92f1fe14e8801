package maps

import (
	"encoding/binary"
	"fmt"
)

// Per-CPU LRU hash, modeling BPF_MAP_TYPE_LRU_PERCPU_HASH: ncpu fully
// private copies (index, arena and recency state). A datapath program
// sees one copy, as a kernel program sees the running CPU's: CPU(i)
// hands out the i-th copy itself, and ParallelRun gives each shard
// goroutine its own fixed view, so no two goroutines share mutable
// state. Reads that need a cross-CPU total go through MergeLookup, the
// explicit merge-on-read path: the user-space bpf_map_lookup_elem
// semantics, where the syscall returns every CPU's value and the caller
// folds them.

// MergeFunc folds one CPU's stored value into the accumulator. acc and
// lane are both ValueSize bytes; acc starts zeroed.
type MergeFunc func(acc, lane []byte)

// AddU64Lanes sums little-endian uint64 lanes.
func AddU64Lanes(acc, lane []byte) {
	for off := 0; off+8 <= len(acc) && off+8 <= len(lane); off += 8 {
		s := binary.LittleEndian.Uint64(acc[off:]) + binary.LittleEndian.Uint64(lane[off:])
		binary.LittleEndian.PutUint64(acc[off:], s)
	}
}

// PerCPULRUHash is an LRU hash with one private copy per CPU. Like the
// kernel's BPF_MAP_TYPE_LRU_PERCPU_HASH, each CPU evicts independently
// from its own recency list, so under memory pressure the set of
// surviving flows depends on how traffic was sharded — a property, not
// a bug, and exactly why merged estimates are only shard-invariant
// while no copy evicts.
type PerCPULRUHash struct {
	per []*LRUHash
}

// NewPerCPULRUHash creates a per-CPU LRU hash with ncpu private copies.
func NewPerCPULRUHash(keySize, valueSize, maxEntries, ncpu int) (*PerCPULRUHash, error) {
	if ncpu <= 0 || ncpu > 4096 {
		return nil, fmt.Errorf("%w: percpu lru hash over %d cpus", ErrConfig, ncpu)
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

// NumCPU returns the number of per-CPU copies.
func (p *PerCPULRUHash) NumCPU() int { return len(p.per) }

// CPU returns the i-th private copy, for fixed-CPU shard goroutines.
func (p *PerCPULRUHash) CPU(i int) *LRUHash { return p.per[i] }

// MaxEntries returns the capacity of each copy.
func (p *PerCPULRUHash) MaxEntries() int { return p.per[0].MaxEntries() }

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
