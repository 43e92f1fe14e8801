// Options-aware construction: the bridge between the catalog and the
// runtime options layer. A daemon request body and a CLI flag set both
// land here — Open for what is pinned on the built instances, Attach
// for what is attached to them — so the same Options value always yields
// the same instance regardless of transport.

package nfcatalog

import (
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/nf/heavykeeper"
	"enetstl/internal/nf/nitrosketch"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/trace"
)

// Open builds name's instance set in flavor for o — the one build the
// daemon and nfrun share. It gives seed the NF's op mix (PrepareTrace),
// constructs one instance per shard (o.Shards, at least one), each
// preloaded from seed's whole flow table, and applies o's
// construction-side settings to exactly what it built: o's tier pinned
// on every VM behind the instances, map_bytes held against the
// footprint of every distinct map they hold (a shared per-CPU map
// counted once, through the wiring, since Kernel-flavour sketch shards
// write their copy without a VM to find it on), rpool_cap against the
// random pool the NF draws. With o.PerCPU the shards take private
// copies of one shared per-CPU map at every shard count; an NF with no
// per-CPU wiring is refused. Quota breaches surface as
// runtime.ErrQuota. Open writes no process state, so concurrent callers
// need no lock.
func Open(o runtime.Options, name string, flavor nf.Flavor, seed *pktgen.Trace) ([]Built, *Sharded, error) {
	tier, err := vm.ParseTier(o.Tier)
	if err != nil {
		return nil, nil, err
	}
	shards := max(o.Shards, 1)
	sh := &Sharded{Name: name, Flavor: flavor}
	if o.PerCPU {
		if sh, err = newPerCPU(name, flavor, shards); err != nil {
			return nil, nil, err
		}
	}
	PrepareTrace(name, seed)
	built := make([]Built, shards)
	held := sh.PerCPUCopies()
	for i := range built {
		if built[i], err = sh.build(i, seed); err != nil {
			return nil, nil, err
		}
		for _, m := range runtime.VMs(built[i].Inst) {
			m.SetTier(tier)
		}
		held = append(held, runtime.Maps(built[i].Inst)...)
	}
	if err := o.Quota.Check(runtime.MapBytes(held), PoolCap(name, flavor)); err != nil {
		return nil, nil, err
	}
	return built, sh, nil
}

// BuildWith is Open for one unsharded instance: o's shard count and
// per-CPU switch are ignored. The benchmark's in-process twin builds
// through it.
func BuildWith(o runtime.Options, name string, flavor nf.Flavor, trace *pktgen.Trace) (Built, error) {
	o.Shards, o.PerCPU = 1, false
	built, _, err := Open(o, name, flavor, trace)
	if err != nil {
		return Built{}, err
	}
	return built[0], nil
}

// Attached is a built instance set with its instrumentation on: the
// instances to replay (one per Built, guard-wrapped when guarded), the
// guards in the same order, and the Stats and recorder every instance
// shares (nil when off).
type Attached struct {
	Insts  []nf.Instance
	Guards []*guard.Guard
	Stats  *vm.Stats
	Rec    *trace.Recorder
}

// Attach is the one attach step, run by the daemon and nfrun on what
// Open built: with o.Stats one fresh Stats goes on every VM
// behind built (a native instance is metered into it instead), with
// o.Trace one fresh flight recorder, and with a guard config
// (o.GuardConfig) each instance i is fronted by guard i carrying the
// NF's wiring. Instances that replay concurrently share nothing only
// if each is attached by its own call.
func Attach(o runtime.Options, name string, built ...Built) Attached {
	var a Attached
	if o.Stats {
		a.Stats = vm.NewStats()
	}
	if t := o.Trace; t != nil {
		a.Rec = trace.NewRecorder(t.Config())
	}
	gcfg, guarded := o.GuardConfig()
	a.Insts = make([]nf.Instance, len(built))
	for i, b := range built {
		inst := b.Inst
		if a.Stats != nil {
			vms := runtime.VMs(inst)
			for _, m := range vms {
				m.SetStats(a.Stats)
			}
			if len(vms) == 0 {
				inst = runtime.Meter(inst, a.Stats)
			}
		}
		if a.Rec != nil {
			runtime.AttachRecorder(inst, a.Rec)
		}
		if guarded {
			g := guard.New(name, i, gcfg)
			b.WireGuard(g)
			a.Guards = append(a.Guards, g)
			inst = g.Wrap(inst)
		}
		a.Insts[i] = inst
	}
	return a
}

// PoolCap is the capacity of the random pool name draws from in flavor,
// 0 when it draws none: only the sampling sketches do, and their eBPF
// flavours call bpf_get_prandom_u32 instead.
func PoolCap(name string, flavor nf.Flavor) int {
	if flavor == nf.EBPF {
		return 0
	}
	switch name {
	case "heavykeeper":
		return heavykeeper.PoolSize
	case "nitrosketch":
		return nitrosketch.PoolSize
	}
	return 0
}

// PerCPUCopies lists the private copies of the per-CPU map the shards
// share, one per shard; empty for wiring without one.
func (s *Sharded) PerCPUCopies() []maps.Map {
	var out []maps.Map
	if p := s.percpu; p != nil {
		for i := 0; i < p.NumCPU(); i++ {
			out = append(out, p.CPU(i))
		}
	}
	if p := s.percpuArr; p != nil {
		for i := 0; i < p.NumCPU(); i++ {
			out = append(out, p.CPU(i))
		}
	}
	return out
}
