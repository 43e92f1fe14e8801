package main

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"enetstl/internal/bitops"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/guard"
	"enetstl/internal/harness"
	"enetstl/internal/listbuckets"
	"enetstl/internal/memwrapper"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nhash"
	"enetstl/internal/pktgen"
	"enetstl/internal/rpool"
	"enetstl/internal/runtime"
	"enetstl/internal/simd"
	"enetstl/internal/trace"
)

// Probes time direct calls into one layer's public functions. They do
// not depend on the workload, so the same numbers appear in every traced
// run; README.md says which workload each one should move.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// prober sizes the probes: each micro sample lasts at least minDur and
// is taken reps times; replay probes make passes interleaved passes. The
// fastest sample is reported, for the reason run.go gives for floors.
type prober struct {
	minDur  time.Duration
	reps    int
	passes  int
	packets int // per replayed or generated batch
	seed    int64
}

func newProber(cfg config) prober {
	if cfg.quick {
		return prober{minDur: 100 * time.Microsecond, reps: 1, passes: 1, packets: 256, seed: cfg.seed}
	}
	return prober{
		minDur:  time.Duration(cfg.seconds * float64(time.Millisecond)),
		reps:    5,
		passes:  min(max(int(cfg.seconds/2), 1), 5),
		packets: batchPackets,
		seed:    cfg.seed,
	}
}

// nsPerOp times fn(n), n back-to-back calls of one operation, and
// returns the fastest sample's ns per call.
func (p prober) nsPerOp(fn func(n int)) float64 {
	n := 64
	for {
		start := time.Now()
		fn(n)
		if time.Since(start) >= p.minDur || n >= 1<<26 {
			break
		}
		n *= 4
	}
	best := math.Inf(1)
	for i := 0; i < p.reps; i++ {
		start := time.Now()
		fn(n)
		best = min(best, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return best
}

func runProbes(cfg config, metrics map[string]float64) {
	p := newProber(cfg)
	p.libraries(metrics)
	p.mapCore(metrics)
	p.ingest(metrics)
	p.nfMatrix(metrics)
	p.planes(metrics)
}

// libraries times each eNetSTL library's hottest exported call, shaped
// as the library's own micro-benchmarks shape it.
func (p prober) libraries(metrics map[string]float64) {
	key := []byte("0123456789abcdef")
	metrics["nhash.fast64_ns"] = p.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += nhash.FastHash64(key, uint64(i))
		}
	})
	cnt := make([]uint32, 8*4096)
	metrics["nhash.hash_cnt_ns"] = p.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			nhash.HashCnt(cnt, nhash.Matrix{Rows: 8, Mask: 4095}, key)
		}
	})
	arr := make([]uint32, 8)
	arr[6] = 0xDEAD
	metrics["simd.find_u32_ns"] = p.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(simd.FindU32(arr, 0xDEAD))
		}
	})
	metrics["bitops.ffs_ns"] = p.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(bitops.FFS(uint64(i) | 1<<40))
		}
	})
	lb := listbuckets.Must(listbuckets.New(1024, 16, 2048))
	metrics["listbuckets.push_pop_ns"] = p.nsPerOp(func(n int) {
		var e [16]byte
		for i := 0; i < n; i++ {
			lb.PushBack(i&1023, e[:])
			lb.PopFront(i&1023, e[:])
		}
	})
	proxy := memwrapper.Must(memwrapper.NewProxy(32, 1))
	anchor, err := proxy.Alloc(1)
	if err == nil {
		err = proxy.SetOwner(anchor)
	}
	if err == nil {
		metrics["memwrapper.alloc_free_ns"] = p.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				node, _ := proxy.Alloc(1) // cannot fail: no fault hook armed
				_ = proxy.Connect(anchor, 0, node)
				_ = proxy.Release(node) // frees node; lazy safety clears the anchor's slot
			}
		})
	}
	pool := rpool.Must(rpool.NewPool(4096, 1))
	metrics["rpool.next_ns"] = p.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(pool.Next())
		}
	})
}

// mapCore times direct map calls with conntrack's geometry (16-byte
// keys and values) at a table that fits L1 and one that does not.
func (p prober) mapCore(metrics map[string]float64) {
	arr := maps.Must(maps.NewArray(4, 4096))
	metrics["maps.array_lookup_ns"] = p.nsPerOp(func(n int) {
		var k [4]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(k[:], uint32(i)&4095)
			sink += uint64(len(arr.Lookup(k[:])))
		}
	})
	val := make([]byte, 16)
	for _, size := range mapSizes {
		// keys[:size] are resident, keys[size:] never inserted. The odd
		// stride walks the table out of insertion order.
		keys := make([][nf.KeyLen]byte, 2*size)
		for i := range keys {
			binary.LittleEndian.PutUint64(keys[i][:], uint64(i)*0x9e3779b97f4a7c15)
		}
		mask, stride := size-1, 40503
		name := func(op string) string { return fmt.Sprintf("maps.%s_ns.%d", op, size) }

		hash, err := maps.NewHash(nf.KeyLen, 16, size)
		if err != nil {
			continue
		}
		for i := 0; i < size; i++ {
			_ = hash.Update(keys[i][:], val) // below capacity: cannot fail
		}
		metrics[name("hash_lookup_hit")] = p.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(hash.Lookup(keys[(i*stride)&mask][:])))
			}
		})
		metrics[name("hash_lookup_miss")] = p.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(hash.Lookup(keys[size+(i*stride)&mask][:])))
			}
		})
		metrics[name("hash_update")] = p.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				_ = hash.Update(keys[(i*stride)&mask][:], val) // resident key: overwrite in place
			}
		})

		lru := maps.Must(maps.NewLRUHash(nf.KeyLen, 16, size))
		for i := 0; i < size; i++ {
			_ = lru.Update(keys[i][:], val) // an LRU evicts instead of failing
		}
		metrics[name("lru_hit")] = p.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(lru.Lookup(keys[(i*stride)&mask][:])))
			}
		})
		var next uint64
		metrics[name("lru_insert_evict")] = p.nsPerOp(func(n int) {
			var k [nf.KeyLen]byte
			for i := 0; i < n; i++ {
				next++
				binary.LittleEndian.PutUint64(k[8:], next) // never seen before: insert + evict
				_ = lru.Update(k[:], val)
			}
		})
	}
}

// ingest times the steps between the HTTP body and the replay loop.
func (p prober) ingest(metrics map[string]float64) {
	cfg := pktgen.Config{Flows: p.packets, Packets: p.packets, ZipfS: 1.1, Seed: p.seed + 1}
	perPkt := func(pkts int, fn func()) float64 {
		return p.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				fn()
			}
		}) / float64(pkts)
	}
	metrics["pktgen.generate_ns_per_pkt"] = perPkt(p.packets, func() {
		sink += uint64(len(pktgen.Generate(cfg).Packets))
	})
	metrics["pktgen.attack_ns_per_pkt"] = perPkt(p.packets, func() {
		sink += uint64(len(pktgen.GenerateAttack(pktgen.AttackConfig{Base: cfg, Kind: pktgen.ScenarioSYNFlood}).Packets))
	})
	spec := runtime.TraceSpec{Flows: p.packets, Packets: p.packets, Zipf: 1.1, Seed: p.seed + 1}
	metrics["runtime.spec_build_ns_per_pkt"] = perPkt(p.packets, func() {
		if tr, err := spec.Build(); err == nil {
			sink += uint64(len(tr.Packets))
		}
	})
	tr := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: 256, ZipfS: 1.1, Seed: p.seed + 1})
	raw := runtime.TraceSpec{Raw: make([]string, len(tr.Packets))}
	for i := range raw.Raw {
		raw.Raw[i] = base64.StdEncoding.EncodeToString(tr.Packets[i][:])
	}
	metrics["runtime.raw_build_ns_per_pkt"] = perPkt(len(raw.Raw), func() {
		if tr, err := raw.Build(); err == nil {
			sink += uint64(len(tr.Packets))
		}
	})
}

// arms is a set of (instance, trace) pairs replayed interleaved.
type arms struct {
	insts  []nf.Instance
	traces []*pktgen.Trace
	ticks  []uint64 // a guard's arrival clock must never run backwards
}

// add builds name/flavor on tier from tr, which it will replay, and
// returns the arm's index and instance, or -1 when the build fails (the
// metrics that needed it then go unmeasured, which fails the run).
func (a *arms) add(name string, fl nf.Flavor, tier string, tr *pktgen.Trace) (int, nf.Instance) {
	b, err := nfcatalog.BuildWith(runtime.Options{Tier: tier}, name, fl, tr)
	if err != nil {
		return -1, nil
	}
	a.insts, a.traces, a.ticks = append(a.insts, b.Inst), append(a.traces, tr), append(a.ticks, 0)
	return len(a.insts) - 1, b.Inst
}

// replay replays every arm's trace passes times, arm after arm within a
// pass so host drift hits all arms alike, and returns each arm's fastest
// ns per packet as harness.ReplayBatch reports it (NaN if a replay
// failed).
func (a *arms) replay(passes int) []float64 {
	best := make([]float64, len(a.insts))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for pass := 0; pass < passes; pass++ {
		for i, inst := range a.insts {
			res, next, err := harness.ReplayBatch(inst, a.traces[i], a.ticks[i])
			a.ticks[i] = next
			if err != nil || res.Packets == 0 {
				best[i] = math.NaN()
				continue
			}
			best[i] = min(best[i], float64(res.Ns)/float64(res.Packets))
		}
	}
	return best
}

func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func (p prober) fig3Trace() *pktgen.Trace {
	return pktgen.Generate(pktgen.Config{Flows: p.packets, Packets: p.packets, ZipfS: 1.1, Seed: p.seed + 1})
}

var flavors = []struct {
	name string
	fl   nf.Flavor
}{{"kernel", nf.Kernel}, {"ebpf", nf.EBPF}, {"enetstl", nf.ENetSTL}}

// nfMatrix replays one Fig. 3 batch through every NF as kernel code and
// as eBPF and eNetSTL bytecode on each VM tier: the paper-shape rows
// (daemon default tier), the per-tier geomeans the tier question is
// decided on, and module build times.
func (p prober) nfMatrix(metrics map[string]float64) {
	type cell struct{ nf, flavor, tier string }
	var (
		a     arms
		cells []cell
	)
	defaultTier := runtime.Defaults().Tier
	buildMs := map[string]float64{}
	for _, name := range fig3NFs {
		for _, f := range flavors {
			ts := tiers
			if f.fl == nf.Kernel {
				ts = []string{defaultTier} // native code: the tier is moot
			}
			for _, tier := range ts {
				tr := p.fig3Trace()
				start := time.Now()
				if i, _ := a.add(name, f.fl, tier, tr); i < 0 {
					return
				}
				if tier == defaultTier {
					buildMs[f.name] += ms(time.Since(start)) / float64(len(fig3NFs))
				}
				cells = append(cells, cell{name, f.name, tier})
			}
		}
	}
	ns := a.replay(p.passes)

	type tierKey struct{ tier, flavor string }
	byTier := map[tierKey][]float64{}
	row := map[cell]float64{} // default tier only
	for i, c := range cells {
		if c.flavor != "kernel" {
			k := tierKey{c.tier, c.flavor}
			byTier[k] = append(byTier[k], ns[i])
		}
		if c.tier == defaultTier {
			metrics[fmt.Sprintf("nf.%s.%s_ns_per_pkt", c.nf, c.flavor)] = ns[i]
			row[cell{nf: c.nf, flavor: c.flavor}] = ns[i]
		}
	}
	for k, v := range byTier {
		metrics[fmt.Sprintf("vm.tier_%s_ns_per_pkt.%s", k.tier, k.flavor)] = geomean(v)
	}
	var overEBPF, overENetSTL []float64
	for _, name := range fig3NFs {
		enetstl := row[cell{nf: name, flavor: "enetstl"}]
		overEBPF = append(overEBPF, enetstl/row[cell{nf: name, flavor: "ebpf"}])
		overENetSTL = append(overENetSTL, row[cell{nf: name, flavor: "kernel"}]/enetstl)
	}
	metrics["nf.enetstl_over_ebpf_geomean"] = geomean(overEBPF)
	metrics["nf.kernel_over_enetstl_geomean"] = geomean(overENetSTL)
	for flavor, v := range buildMs {
		metrics["nfcatalog.build_ms."+flavor] = v
	}
}

// planes prices the optional planes a module can run behind: vm.Stats,
// the flight recorder (at tenant_churn's 5% sampling) and the guard,
// each as an instrumented replay against a bare one of the same NF.
func (p prober) planes(metrics map[string]float64) {
	var a arms
	type trio struct{ bare, stats, rec int }
	var trios []trio
	for _, name := range fig3NFs {
		b, _ := a.add(name, nf.ENetSTL, "", p.fig3Trace())
		s, sInst := a.add(name, nf.ENetSTL, "", p.fig3Trace())
		r, rInst := a.add(name, nf.ENetSTL, "", p.fig3Trace())
		if b < 0 || s < 0 || r < 0 {
			return
		}
		runtime.AttachStats(sInst)
		runtime.AttachRecorder(rInst, trace.NewRecorder(trace.Config{Capacity: 4096, SampleRate: 0.05}))
		trios = append(trios, trio{b, s, r})
	}
	// conntrack on resident flows, bare and guarded (one tick per packet
	// at the calibrated mean cost: the guard charges but never sheds),
	// and on churn.
	hitCfg := pktgen.Config{Flows: 64, Packets: p.packets, ZipfS: 1.1, Seed: p.seed + 1}
	hit, _ := a.add("conntrack", nf.EBPF, "", pktgen.Generate(hitCfg))
	guarded, inner := a.add("conntrack", nf.EBPF, "", pktgen.Generate(hitCfg))
	hitCfg.Flows = 1024
	churn, _ := a.add("conntrack", nf.EBPF, "", pktgen.GenerateAttack(pktgen.AttackConfig{Base: hitCfg, Kind: pktgen.ScenarioChurn}))
	if hit < 0 || guarded < 0 || churn < 0 {
		return
	}
	a.insts[guarded] = guard.New("conntrack", 0, guard.Config{Enabled: true}).Wrap(inner)

	ns := a.replay(p.passes)
	var bare, withStats, withRec float64
	for _, t := range trios {
		bare, withStats, withRec = bare+ns[t.bare], withStats+ns[t.stats], withRec+ns[t.rec]
	}
	metrics["vm.stats_on_overhead_pct"] = 100 * (withStats - bare) / bare
	metrics["trace.record_overhead_pct"] = 100 * (withRec - bare) / bare
	metrics["guard.charge_ns_per_pkt"] = ns[guarded] - ns[hit]
	metrics["maps.conntrack_hit_ns_per_pkt"] = ns[hit]
	metrics["maps.conntrack_churn_ns_per_pkt"] = ns[churn]
}
