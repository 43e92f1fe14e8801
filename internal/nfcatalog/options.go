// Options-aware construction: the bridge between the catalog and the
// runtime options layer. A daemon request body and a CLI flag set both
// land here — Apply for what is pinned on the built instance, Attach
// for what is attached to it — so the same Options value always yields
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

// BuildWith constructs an NF with its full wiring, then applies o's
// construction-side settings (tier, quotas) to what was built. Quota
// breaches surface as runtime.ErrQuota.
func BuildWith(o runtime.Options, name string, flavor nf.Flavor, trace *pktgen.Trace) (Built, error) {
	b, err := BuildFull(name, flavor, trace)
	if err != nil {
		return Built{}, err
	}
	if err := Apply(o, name, flavor, nil, b); err != nil {
		return Built{}, err
	}
	return b, nil
}

// Apply is the post-build half of BuildWith, shared with the daemon
// and nfrun's shard builder (which build their shards themselves): it
// pins o's tier on every VM behind the built instances and holds o's
// quotas against them — map_bytes against the footprint of every
// distinct map they hold, rpool_cap against the random pool the NF
// draws. sh is the shards'
// wiring, nil when unsharded: its shared per-CPU map is metered through
// it, because Kernel-flavour sketch shards write their copy without a
// VM to find it on. Apply writes no process state, so concurrent
// callers need no lock.
func Apply(o runtime.Options, name string, flavor nf.Flavor, sh *Sharded, built ...Built) error {
	tier, err := vm.ParseTier(o.Tier)
	if err != nil {
		return err
	}
	var held []maps.Map
	if sh != nil {
		held = sh.PerCPUCopies()
	}
	for _, b := range built {
		for _, m := range runtime.VMs(b.Inst) {
			m.SetTier(tier)
		}
		held = append(held, runtime.Maps(b.Inst)...)
	}
	return o.Quota.Check(runtime.MapBytes(held), PoolCap(name, flavor))
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
// they built and Applied: with o.Stats one fresh Stats goes on every VM
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

// BuildFull constructs shard's instance like Build but returns the full
// wiring, so per-shard guards and estimators can be attached. The
// merged estimator remains Sharded.Estimate; the per-shard Est is what
// this shard alone observed (nil for per-CPU wiring, whose estimate is
// merge-on-read and only meaningful across all copies).
func (s *Sharded) BuildFull(shard int, trace *pktgen.Trace) (Built, error) {
	if s.percpu != nil || s.buildCPU != nil {
		inst, err := s.Build(shard, trace)
		if err != nil {
			return Built{}, err
		}
		return Built{Inst: inst}, nil
	}
	b, err := construct(s.Name, s.Flavor, trace)
	if err != nil {
		return Built{}, err
	}
	if b.Est != nil {
		s.ests = append(s.ests, b.Est)
	}
	return b, nil
}
