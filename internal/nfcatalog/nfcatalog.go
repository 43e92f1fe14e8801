// Package nfcatalog is the single registry of runnable NF instances:
// it knows how to construct every network function in every flavour
// (with the trace-derived table contents and op mixes each needs) and
// what comes with each one — the native fault hooks to arm, the
// structural invariants to check, the control-plane estimator and the
// error bound that estimator must hold. It also enumerates the
// conformance grid (Cells): every NF in every flavour it supports over
// one prepared trace. The daemon, the CLIs and internal/difftest all
// build from here, so "every registered NF" means the same set
// everywhere.
package nfcatalog

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/faultinject"
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

// Built is one constructed NF plus its full wiring: the chaos-plane
// fault hooks and invariant check, the control-plane estimator with the
// error bound the conformance grid holds it to after a replay, and the
// guard policy opt-ins. The daemon and the CLIs both consume it, so "an
// NF with its wiring" means the same thing over HTTP and over flags.
type Built struct {
	Inst  nf.Instance
	Arm   func(p *faultinject.Plane)
	Check func() error
	Est   func(key []byte) uint32
	// Bound is the oracle for Est (bound.go); nil for NFs whose
	// verdicts carry the whole signal.
	Bound Bound
	// GuardWire wires the NF's overload-guard opt-ins (degradation
	// policy, watermark probes) into a guard fronting this instance; nil
	// for NFs with no bespoke policy (generic budget shedding still
	// applies).
	GuardWire func(g *guard.Guard)
}

// Build constructs an NF instance, populating lookup structures from
// the trace's flows where the NF needs a table and applying the NF's
// op mix to the trace.
func Build(name string, flavor nf.Flavor, trace *pktgen.Trace) (nf.Instance, error) {
	b, err := BuildFull(name, flavor, trace)
	if err != nil {
		return nil, err
	}
	return b.Inst, nil
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
// exactly as Build does. It is exposed separately so sharded replay
// can mix the full trace once before hash-partitioning it: packet
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

func BuildFull(name string, flavor nf.Flavor, trace *pktgen.Trace) (Built, error) {
	PrepareTrace(name, trace)
	return construct(name, flavor, trace)
}

// Sketch geometry, stated once: construct, the per-CPU wiring and the
// estimator oracles all read these.
var (
	cmsketchCfg    = cmsketch.Config{Rows: 8, Width: 4096}
	nitrosketchCfg = nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 4}
	spacesavingCfg = spacesaving.Config{Slots: 64}
)

// VBFSets is the number of sets vbf's flows are spread over at preload:
// flow f is inserted into set f%VBFSets. Exported for the verdict-stream
// oracle in internal/difftest, which reads set membership off verdicts.
const VBFSets = 32

// construct builds the instance and preloads its tables from the
// trace's flow table. It never mutates the trace, so sharded replay
// can call it once per shard on already-prepared sub-traces: the flow
// table travels whole with every shard (pktgen.Trace.Shard), giving
// each per-CPU instance an identical table image.
func construct(name string, flavor nf.Flavor, trace *pktgen.Trace) (Built, error) {
	switch name {
	case "skiplist":
		s, err := skiplist.New(flavor)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s, Check: s.CheckInvariants, Arm: func(p *faultinject.Plane) {
			if pr := s.Proxy(); pr != nil {
				pr.FailAlloc = p.Site(faultinject.SiteAlloc).Fire
			}
		}}, nil
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
		s, err := cmsketch.New(flavor, cmsketchCfg)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s.Instance, Est: s.Estimate, Bound: countMinBound(s.Estimate),
			GuardWire: func(g *guard.Guard) { g.SetHeadSample(s.DegradeHeadSample()) }}, nil
	case "nitrosketch":
		s, err := nitrosketch.New(flavor, nitrosketchCfg)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s.Instance, Est: s.Estimate, Bound: nitroBound(s.Estimate), Arm: func(p *faultinject.Plane) {
			if g := s.GeoPool(); g != nil {
				g.FailRefill = p.Site(faultinject.SiteRefill).Fire
			}
		}, GuardWire: func(g *guard.Guard) { g.SetHeadSample(s.DegradeHeadSample()) }}, nil
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
			v.Insert(trace.FlowKeys[i][:], i%VBFSets)
		}
		return Built{Inst: v.Instance, Est: v.Query, Bound: vbfBound(v.Query)}, nil
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
		return Built{Inst: w, Check: w.CheckInvariants}, nil
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
		return Built{Inst: h.Instance, Est: h.Estimate, Bound: heavyKeeperBound(h.Estimate), Arm: func(p *faultinject.Plane) {
			if pl := h.Pool(); pl != nil {
				pl.FailRefill = p.Site(faultinject.SiteRefill).Fire
			}
		}, GuardWire: func(g *guard.Guard) { g.SetHeadSample(h.DegradeHeadSample()) }}, nil
	case "bloom":
		f, err := bloom.New(flavor, bloom.Config{Bits: 1 << 16, Hashes: 4})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: f.Instance}, nil
	case "spacesaving":
		s, err := spacesaving.New(flavor, spacesavingCfg)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: s.Instance, Est: s.Estimate, Bound: spaceSavingBound(s.Estimate)}, nil
	case "conntrack":
		// Sized below the flow count so the LRU churns and the update
		// path stays hot for the whole replay.
		t, err := conntrack.New(flavor, conntrack.Config{Entries: 128})
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: t, Arm: func(p *faultinject.Plane) {
			// Kernel flavour: decorate the backing map directly (the EBPF
			// flavour's map is wrapped generically through the VM).
			if m := t.Map(); m != nil {
				if f, ok := m.(*maps.Faulty); ok {
					m = f.Unwrap()
				}
				t.SetMap(&maps.Faulty{
					M:          m,
					FailUpdate: p.Site(faultinject.SiteMapUpdate).Fire,
					MissLookup: p.Site(faultinject.SiteMapLookup).Fire,
				})
			}
		}, GuardWire: func(g *guard.Guard) {
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

// Sharded wires one NF into harness.ParallelRun: Build is the
// per-shard constructor (harness.ShardBuilder) and Estimate merges the
// per-shard sketch estimators by summation — a count-min/VBF estimate
// is a sum of per-row counters, and hash-partitioning the stream
// splits every counter into per-shard addends, so the summed estimate
// keeps the one-sided overestimate guarantee at any shard count.
type Sharded struct {
	Name   string
	Flavor nf.Flavor
	ests   []func(key []byte) uint32
	// percpu, when set, is the shared per-CPU flow table conntrack
	// shards take private copies of (see NewShardedPerCPU).
	percpu *maps.PerCPULRUHash
	// percpuArr, when set, is the shared per-CPU counter matrix the
	// sketch shards take private copies of; buildCPU constructs one
	// shard's instance over its copy and estCPU is the merge-on-read
	// estimator across all copies.
	percpuArr *maps.PerCPUArray
	buildCPU  func(shard int) (nf.Instance, error)
	estCPU    func(key []byte) uint32
}

// NewSharded returns the ParallelRun wiring for name/flavor. Prepare
// the full trace with PrepareTrace before sharding it.
func NewSharded(name string, flavor nf.Flavor) *Sharded {
	return &Sharded{Name: name, Flavor: flavor}
}

// NewShardedPerCPU returns ParallelRun wiring whose shards share one
// per-CPU map with private per-shard copies — the kernel per-CPU map
// deployment shape, where scale-out stops sharing arenas. The shard
// count is needed up front to size the per-CPU table (ParallelRun's
// builder callback doesn't know the total). Three NFs carry per-CPU
// wiring: conntrack over BPF_MAP_TYPE_LRU_PERCPU_HASH with
// merge-on-read flow totals (FlowPackets), and the cmsketch and
// nitrosketch counter matrices over BPF_MAP_TYPE_PERCPU_ARRAY with
// merge-on-read estimates (Estimate sums the probed counters across
// copies before taking the row minimum).
func NewShardedPerCPU(name string, flavor nf.Flavor, shards int) (*Sharded, error) {
	switch name {
	case "conntrack":
		// Same 128-entry sizing as the shared-table construct() path, but
		// per copy, matching the kernel semantics (max_entries is per-CPU
		// budgeted for percpu_lru maps).
		p, err := maps.NewPerCPULRUHash(nf.KeyLen, conntrack.ValSize, 128, shards)
		if err != nil {
			return nil, err
		}
		return &Sharded{Name: name, Flavor: flavor, percpu: p}, nil
	case "cmsketch":
		cfg := cmsketchCfg
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
				return s, nil
			},
			estCPU: func(key []byte) uint32 { return cmsketch.EstimatePerCPU(p, cfg, key) },
		}, nil
	case "nitrosketch":
		cfg := nitrosketchCfg
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
				return s, nil
			},
			estCPU: func(key []byte) uint32 { return nitrosketch.EstimatePerCPU(p, cfg, key) },
		}, nil
	}
	return nil, fmt.Errorf("nfcatalog: no per-cpu wiring for %q", name)
}

// Build constructs shard s's instance from its sub-trace. ParallelRun
// calls it serially, one shard at a time, before any replay starts.
func (s *Sharded) Build(shard int, trace *pktgen.Trace) (nf.Instance, error) {
	if s.percpu != nil {
		return conntrack.NewOnCPU(s.Flavor, s.percpu, shard)
	}
	if s.buildCPU != nil {
		return s.buildCPU(shard)
	}
	b, err := construct(s.Name, s.Flavor, trace)
	if err != nil {
		return nil, err
	}
	if b.Est != nil {
		s.ests = append(s.ests, b.Est)
	}
	return b.Inst, nil
}

// PerCPUTable returns the shared per-CPU flow table, or nil for wiring
// built with NewSharded.
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
