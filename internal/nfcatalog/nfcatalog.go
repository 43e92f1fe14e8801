// Package nfcatalog is the single registry of runnable NF instances:
// it knows how to construct every network function in every flavour
// (with the trace-derived table contents and op mixes each needs) and
// what comes with each one — the control-plane estimator and the
// overload-guard opt-ins. The daemon, the CLIs, the benchmark and the
// conformance grid (internal/difftest, which only tests import) all
// build from here, so "every registered NF" means the same set
// everywhere.
package nfcatalog

import (
	"encoding/binary"
	"fmt"
	"slices"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/nf/bloom"
	"enetstl/internal/nf/cmsketch"
	"enetstl/internal/nf/conntrack"
	"enetstl/internal/nf/cuckoofilter"
	"enetstl/internal/nf/cuckooswitch"
	"enetstl/internal/nf/daryhash"
	"enetstl/internal/nf/edf"
	"enetstl/internal/nf/eiffel"
	"enetstl/internal/nf/heavykeeper"
	"enetstl/internal/nf/nitrosketch"
	"enetstl/internal/nf/skiplist"
	"enetstl/internal/nf/spacesaving"
	"enetstl/internal/nf/timewheel"
	"enetstl/internal/nf/tss"
	"enetstl/internal/nf/vbf"
	"enetstl/internal/pktgen"
)

// Names lists every registered NF.
func Names() []string {
	return []string{
		"skiplist", "cuckooswitch", "cmsketch", "nitrosketch", "cuckoofilter",
		"bloom", "vbf", "eiffel", "timewheel", "edf", "tss", "heavykeeper",
		"spacesaving", "daryhash", "conntrack",
	}
}

// Supports reports whether name is a registered NF that can be built in
// flavor.
func Supports(name string, flavor nf.Flavor) bool {
	switch {
	case name == "skiplist" && flavor == nf.EBPF:
		return false // not implementable in pure eBPF (paper P1)
	case name == "conntrack" && flavor == nf.ENetSTL:
		return false // pure maps+helpers NF; no eNetSTL flavour
	}
	return slices.Contains(Names(), name)
}

// Built is one constructed NF plus its wiring: the control-plane
// estimator and the guard policy opt-ins. The daemon and the CLIs both
// consume it, so "an NF with its wiring" means the same thing over HTTP
// and over flags.
type Built struct {
	Inst nf.Instance
	// NF is the object construct built behind Inst (*cmsketch.Sketch,
	// *skiplist.SkipList, ...): the one handle to an NF's own state for
	// a caller that looks past the instance. It is set only where Inst
	// or Est already keeps that object alive, so it never holds a
	// control-plane table (a cuckoo table's native image, say) past
	// the build; nil elsewhere.
	NF any
	// Est is the control-plane estimator; nil for NFs whose verdicts
	// carry the whole signal.
	Est func(key []byte) uint32
	// GuardWire wires the NF's overload-guard opt-ins (degradation
	// policy, watermark probes) into a guard fronting this instance; nil
	// for NFs with no bespoke policy (generic budget shedding still
	// applies).
	GuardWire func(g *guard.Guard)
}

// queueize turns the trace into an enqueue/dequeue mix with spread
// priorities and deadlines, for the scheduler NFs.
func queueize(trace *pktgen.Trace) {
	trace.ApplyOpMix([]uint32{nf.OpEnqueue, nf.OpDequeue}, []int{1, 1})
	trace.ApplyArgKeys(0)
	for i := range trace.Packets {
		trace.Packets[i].SetTS(uint64(i / 2))
	}
}

// PrepareTrace applies name's op mix and argument keying to the trace,
// exactly as Open and BuildFull do. It is exposed separately so a batch
// is mixed whole before it is hash-partitioned across shards: packet
// contents must not depend on the shard count, and the op mix walks
// packets by index.
func PrepareTrace(name string, trace *pktgen.Trace) {
	switch name {
	case "skiplist":
		trace.ApplyOpMix([]uint32{nf.OpUpdate, nf.OpLookup, nf.OpDelete}, []int{1, 2, 1})
	case "eiffel", "timewheel":
		queueize(trace)
	case "bloom":
		trace.ApplyOpMix([]uint32{nf.OpUpdate, nf.OpLookup}, []int{1, 3})
	}
}

// BuildFull constructs an NF instance with its full wiring, populating
// lookup structures from the trace's flows where the NF needs a table
// and applying the NF's op mix to the trace.
func BuildFull(name string, flavor nf.Flavor, trace *pktgen.Trace) (Built, error) {
	PrepareTrace(name, trace)
	return construct(name, flavor, trace)
}

// Sketch geometry, stated once: construct and the per-CPU wiring build
// with it, and the conformance grid states its estimator bounds in it.
// Read-only.
var (
	CMSketchConfig    = cmsketch.Config{Rows: 8, Width: 4096}
	NitroSketchConfig = nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 4}
	SpaceSavingConfig = spacesaving.Config{Slots: 64}
)

// construct builds the instance and preloads its tables from the
// trace's flow table, reading nothing else. It never mutates the trace,
// so Open calls it once per shard on the one seed: every shard gets an
// identical table image, the per-CPU replica model.
func construct(name string, flavor nf.Flavor, trace *pktgen.Trace) (Built, error) {
	switch name {
	case "skiplist":
		s, err := skiplist.New(flavor)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s, NF: s}, nil
	case "cuckooswitch":
		s, err := cuckooswitch.New(flavor, cuckooswitch.Config{Buckets: 1024})
		if err != nil {
			return Built{}, err
		}
		for i := range trace.FlowKeys {
			s.Insert(trace.FlowKeys[i][:], uint32(100+i))
		}
		return Built{Inst: s.Instance}, nil
	case "cmsketch":
		s, err := cmsketch.New(flavor, CMSketchConfig)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s.Instance, NF: s, Est: s.Estimate,
			GuardWire: func(g *guard.Guard) { g.SetHeadSample(s.DegradeHeadSample()) }}, nil
	case "nitrosketch":
		s, err := nitrosketch.New(flavor, NitroSketchConfig)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s.Instance, NF: s, Est: s.Estimate,
			GuardWire: func(g *guard.Guard) { g.SetHeadSample(s.DegradeHeadSample()) }}, nil
	case "cuckoofilter":
		f, err := cuckoofilter.New(flavor, cuckoofilter.Config{Buckets: 1024})
		if err != nil {
			return Built{}, err
		}
		for i := range trace.FlowKeys {
			f.Insert(trace.FlowKeys[i][:])
		}
		return Built{Inst: f.Instance}, nil
	case "vbf":
		v, err := vbf.New(flavor, vbf.Config{Bits: 16384, Hashes: 4})
		if err != nil {
			return Built{}, err
		}
		for i := range trace.FlowKeys {
			v.Insert(trace.FlowKeys[i][:], i%vbf.Sets)
		}
		return Built{Inst: v.Instance, NF: v, Est: v.Query}, nil
	case "eiffel":
		q, err := eiffel.New(flavor, eiffel.Config{Levels: 2})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: q.Instance}, nil
	case "timewheel":
		w, err := timewheel.New(flavor, timewheel.Config{Slots: 1024})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: w, NF: w}, nil
	case "edf":
		e, err := edf.New(flavor, edf.Config{Groups: 1024, Targets: 64})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: e.Instance}, nil
	case "tss":
		c, err := tss.New(flavor, tss.Config{Spaces: 8, Slots: 1024})
		if err != nil {
			return Built{}, err
		}
		for i := 0; i < len(trace.FlowKeys)/2; i++ {
			c.Insert(trace.FlowKeys[i][:], i%8, uint32(i%7+1), uint32(i))
		}
		return Built{Inst: c.Instance}, nil
	case "heavykeeper":
		h, err := heavykeeper.New(flavor, heavykeeper.Config{Rows: 4, Width: 4096})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: h.Instance, NF: h, Est: h.Estimate,
			GuardWire: func(g *guard.Guard) { g.SetHeadSample(h.DegradeHeadSample()) }}, nil
	case "bloom":
		f, err := bloom.New(flavor, bloom.Config{Bits: 1 << 16, Hashes: 4})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: f.Instance}, nil
	case "spacesaving":
		s, err := spacesaving.New(flavor, SpaceSavingConfig)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s.Instance, NF: s, Est: s.Estimate}, nil
	case "conntrack":
		// Sized below the flow count so the LRU churns and the update
		// path stays hot for the whole replay.
		t, err := conntrack.New(flavor, conntrack.Config{Entries: 128})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: t, NF: t, GuardWire: func(g *guard.Guard) {
			g.OnDegrade(t.Degrade)
			// The flow table runs full under benign load, so occupancy is
			// meaningless for an LRU; the overload signal is the eviction
			// RATE — victims per admitted packet over the probe interval.
			// Flow churn drives it toward 1.0 (every new flow evicts);
			// benign zipf traffic keeps it low (hot flows hit in place).
			var prev uint64
			interval := float64(g.ProbeInterval())
			g.AddWatermark(guard.Watermark{
				Name: "conntrack-eviction-rate", High: 0.6, Low: 0.4,
				Frac: func() float64 {
					cur := t.LRU().Evictions
					d := float64(cur-prev) / interval
					prev = cur
					if d > 1 {
						d = 1
					}
					return d
				},
			})
		}}, nil
	case "daryhash":
		d, err := daryhash.New(flavor, daryhash.Config{Slots: 4096, D: 4})
		if err != nil {
			return Built{}, err
		}
		for i := 0; i < len(trace.FlowKeys) && i < 2048; i++ {
			d.Insert(trace.FlowKeys[i][:], uint32(100+i))
		}
		return Built{Inst: d.Instance}, nil
	}
	return Built{}, fmt.Errorf("unknown NF %q", name)
}

// Sharded is one instance set's wiring, as Open returns it: the
// shared per-CPU map its shards take private copies of, if any, and the
// merged control-plane estimator. Estimate sums the per-shard sketch
// estimators — a count-min/VBF estimate is a sum of per-row counters,
// and hash-partitioning the stream splits every counter into per-shard
// addends, so the summed estimate keeps the one-sided overestimate
// guarantee at any shard count.
type Sharded struct {
	Name   string
	Flavor nf.Flavor
	ests   []func(key []byte) uint32
	// percpu, when set, is the shared per-CPU flow table conntrack
	// shards take private copies of.
	percpu *maps.PerCPULRUHash
	// percpuArr, when set, is the shared per-CPU counter matrix the
	// sketch shards take private copies of; estCPU is the merge-on-read
	// estimator across all copies.
	percpuArr *maps.PerCPUArray
	// buildCPU constructs one shard's instance over its copy of the
	// per-CPU map; nil when the shards share none.
	buildCPU func(shard int) (nf.Instance, error)
	estCPU   func(key []byte) uint32
}

// newPerCPU returns wiring whose shards share one per-CPU map with
// private per-shard copies — the kernel per-CPU map deployment shape,
// where scale-out stops sharing arenas. Three NFs carry per-CPU wiring:
// conntrack over BPF_MAP_TYPE_LRU_PERCPU_HASH with merge-on-read flow
// totals (FlowPackets), and the cmsketch and nitrosketch counter
// matrices over BPF_MAP_TYPE_PERCPU_ARRAY with merge-on-read estimates
// (Estimate sums the probed counters across copies before taking the
// row minimum).
func newPerCPU(name string, flavor nf.Flavor, shards int) (*Sharded, error) {
	switch name {
	case "conntrack":
		// Same 128-entry sizing as construct(), but per copy, matching
		// the kernel semantics (max_entries is per-CPU budgeted for
		// percpu_lru maps).
		p, err := maps.NewPerCPULRUHash(nf.KeyLen, conntrack.ValSize, 128, shards)
		if err != nil {
			return nil, err
		}
		return &Sharded{Name: name, Flavor: flavor, percpu: p,
			buildCPU: func(shard int) (nf.Instance, error) { return conntrack.NewOnCPU(flavor, p, shard) },
		}, nil
	case "cmsketch":
		cfg := CMSketchConfig
		p, err := maps.NewPerCPUArray(cfg.Rows*cfg.Width*4, 1, shards)
		if err != nil {
			return nil, err
		}
		return &Sharded{Name: name, Flavor: flavor, percpuArr: p,
			buildCPU: func(shard int) (nf.Instance, error) {
				s, err := cmsketch.NewOnCPU(flavor, p, shard, cfg)
				if err != nil {
					return nil, err
				}
				return s.Instance, nil
			},
			estCPU: func(key []byte) uint32 { return cmsketch.EstimatePerCPU(p, cfg, key) },
		}, nil
	case "nitrosketch":
		cfg := NitroSketchConfig
		p, err := maps.NewPerCPUArray(cfg.Rows*cfg.Width*4, 1, shards)
		if err != nil {
			return nil, err
		}
		return &Sharded{Name: name, Flavor: flavor, percpuArr: p,
			buildCPU: func(shard int) (nf.Instance, error) {
				s, err := nitrosketch.NewOnCPU(flavor, p, shard, cfg)
				if err != nil {
					return nil, err
				}
				return s.Instance, nil
			},
			estCPU: func(key []byte) uint32 { return nitrosketch.EstimatePerCPU(p, cfg, key) },
		}, nil
	}
	return nil, fmt.Errorf("nfcatalog: no per-cpu wiring for %q", name)
}

// build constructs shard's instance with its full wiring. Over a
// per-CPU map the instance comes bare: its estimate is merge-on-read,
// meaningful only across all copies (Estimate), and it carries no
// per-shard hooks.
func (s *Sharded) build(shard int, seed *pktgen.Trace) (Built, error) {
	if s.buildCPU != nil {
		inst, err := s.buildCPU(shard)
		return Built{Inst: inst}, err
	}
	b, err := construct(s.Name, s.Flavor, seed)
	if err == nil && b.Est != nil {
		s.ests = append(s.ests, b.Est)
	}
	return b, err
}

// PerCPUTable returns the shared per-CPU flow table, or nil when the
// shards share none.
func (s *Sharded) PerCPUTable() *maps.PerCPULRUHash { return s.percpu }

// FlowPackets is the merge-on-read aggregate over the per-CPU flow
// table: the total packets tracked for key across every shard's private
// copy, folded with the canonical u64-lane sum. ok is false when no
// shard holds the flow (or the wiring isn't per-CPU).
func (s *Sharded) FlowPackets(key []byte) (pkts uint64, ok bool) {
	if s.percpu == nil {
		return 0, false
	}
	out := make([]byte, conntrack.ValSize)
	if !s.percpu.MergeLookup(key, out, maps.AddU64Lanes) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(out), true
}

// Estimate sums the per-shard estimators for key. For per-CPU sketch
// wiring the sum is merge-on-read over the shared matrix's copies
// before the row minimum, exactly as a control plane reads a kernel
// per-CPU map. ok is false when the NF has no control-plane estimator.
func (s *Sharded) Estimate(key []byte) (est uint32, ok bool) {
	if s.estCPU != nil {
		return s.estCPU(key), true
	}
	if len(s.ests) == 0 {
		return 0, false
	}
	for _, e := range s.ests {
		est += e(key)
	}
	return est, true
}
