// Package nitrosketch implements the NitroSketch NF ([45]): a count-min
// style sketch where each row is updated only with probability p,
// adding 1/p to keep estimates unbiased. The per-row sampling makes
// random-number generation the datapath bottleneck at low p.
//
//   - Kernel: native Go; geometric skip sampling from an eNetSTL
//     geo_rpool (§4.3): per-packet work is O(selected rows).
//   - EBPF: bytecode; one bpf_get_prandom_u32 helper call per row per
//     packet (the costly pattern of §2.2 P2).
//   - ENetSTL: bytecode; geometric skips via kf_geo_next, so random
//     generation and hashing run only for selected rows.
//
// Geometric skips over the flattened (packet, row) sequence are
// distributionally identical to per-row Bernoulli(p) selection; the
// Kernel and ENetSTL flavours consume identically seeded pools and
// produce bit-identical sketches.
//
// Probabilities are powers of two (p = 2^-k), as in the Fig. 3d sweep,
// so eBPF selection is a mask test and the compensating increment 2^k.
package nitrosketch

import (
	"fmt"

	"enetstl/internal/core"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nf/nfasm"
	"enetstl/internal/nhash"
	"enetstl/internal/rpool"
)

// Config sizes the sketch.
type Config struct {
	Rows     int // number of rows d
	Width    int // counters per row, power of two
	ProbLog2 int // update probability p = 2^-ProbLog2, in [0,16]

	// Stripped removes the probabilistic-update behaviour (observation
	// O4) from the EBPF flavour: no helper RNG calls, every row updates.
	// Used by the Fig. 1 experiment.
	Stripped bool
}

func (c Config) validate() error {
	if c.Rows <= 0 || c.Rows > 16 || c.Rows&(c.Rows-1) != 0 {
		return fmt.Errorf("nitrosketch: rows %d must be a power of two in [1,16]", c.Rows)
	}
	if c.Width <= 0 || c.Width&(c.Width-1) != 0 {
		return fmt.Errorf("nitrosketch: width %d must be a power of two", c.Width)
	}
	if c.ProbLog2 < 0 || c.ProbLog2 > 16 {
		return fmt.Errorf("nitrosketch: probLog2 %d out of range [0,16]", c.ProbLog2)
	}
	return nil
}

// Sketch is one built instance.
type Sketch struct {
	nf.Instance
	cfg Config

	native []uint32
	geo    *rpool.GeoPool
	next   uint64 // next (packet*rows+row) update index
	cnt    uint64 // packets seen
	arr    *maps.Array
}

// PoolSize is the capacity of the geometric pool the Kernel and
// eNetSTL flavours draw skip counts from (the eBPF flavour calls
// bpf_get_prandom_u32 instead). Exported so a per-tenant rpool quota can
// be decided without building the NF.
const PoolSize = 4096

const geoSeed = 0xabcdef

// DegradeHeadSample is the sketch's opt-in overload degradation (see
// cmsketch): NitroSketch already samples per row, so the guard thins
// the packet stream more gently than for the dense sketches.
func (s *Sketch) DegradeHeadSample() int { return 4 }

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*Sketch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sketch{cfg: cfg}
	inc := uint32(1) << cfg.ProbLog2
	wMask := uint32(cfg.Width - 1)
	switch flavor {
	case nf.Kernel:
		s.native = make([]uint32, cfg.Rows*cfg.Width)
		s.geo = rpool.Must(rpool.NewGeoPool(PoolSize, prob(cfg.ProbLog2), geoSeed))
		s.next = uint64(s.geo.Next()) - 1
		rows := uint64(cfg.Rows)
		s.Instance = &nf.NativeInstance{NFName: "nitrosketch", Fn: func(pkt []byte) uint64 {
			key := pkt[nf.OffKey : nf.OffKey+nf.KeyLen]
			base := s.cnt * rows
			lim := base + rows
			s.cnt++
			for s.next < lim {
				row := int(s.next - base)
				h := nhash.FastHash32(key, nhash.Seed(row))
				s.native[row*cfg.Width+int(h&wMask)] += inc
				s.next += uint64(s.geo.Next())
			}
			return vm.XDPDrop
		}}
		return s, nil
	case nf.EBPF, nf.ENetSTL:
		return newVM(flavor, cfg, maps.Must(maps.NewArray(cfg.Rows*cfg.Width*4, 1)))
	}
	return nil, fmt.Errorf("nitrosketch: unknown flavor %v", flavor)
}

// newVM builds a bytecode flavour over an explicit counter matrix —
// either a freshly allocated private one (New) or one CPU's copy of a
// shared per-CPU map (NewOnCPU). The geo state map and pool handle are
// always private to the instance: the sampling cursor is per-CPU state.
func newVM(flavor nf.Flavor, cfg Config, arr *maps.Array) (*Sketch, error) {
	s := &Sketch{cfg: cfg, arr: arr}
	selMask := uint32(1)<<cfg.ProbLog2 - 1
	inc := uint32(1) << cfg.ProbLog2
	machine := vm.New()
	fd := machine.RegisterMap(arr)
	var b *asm.Builder
	if flavor == nf.EBPF {
		b = buildEBPF(fd, cfg, selMask, inc)
	} else {
		core.Attach(machine, core.Config{})
		// State: [rel u64][geo handle u64]: rel is the offset of the
		// next selected (packet,row) pair relative to this packet.
		state := maps.Must(maps.NewArray(16, 1))
		stateFD := machine.RegisterMap(state)
		geo := rpool.Must(rpool.NewGeoPool(PoolSize, prob(cfg.ProbLog2), geoSeed))
		h := machine.AllocHandle(geo)
		d := state.Data()
		putLE64(d[0:], uint64(geo.Next())-1) // rel
		putLE64(d[8:], h)                    // handle
		b = buildENetSTL(fd, stateFD, cfg, inc)
	}
	ins, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("nitrosketch: assemble: %w", err)
	}
	p, err := verifier.LoadAndVerify(machine, "nitrosketch", ins, verifier.Options{CtxSize: nf.PktSize})
	if err != nil {
		return nil, err
	}
	s.Instance = nf.NewVMInstance("nitrosketch", flavor, machine, p)
	return s, nil
}

// NewOnCPU builds the NF over one CPU's private copy of a shared
// per-CPU counter matrix (BPF_MAP_TYPE_PERCPU_ARRAY): each RSS shard
// increments its own copy lock-free and cross-shard estimates come from
// merge-on-read aggregation (EstimatePerCPU). Each shard draws from its
// own sampling stream (its private geo pool or VM helper RNG), exactly
// as per-CPU kernel deployments do, so merged estimates carry the usual
// NitroSketch error bounds rather than bit-exact shard invariance.
func NewOnCPU(flavor nf.Flavor, p *maps.PerCPUArray, cpu int, cfg Config) (*Sketch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("nitrosketch: nil per-cpu matrix")
	}
	if cpu < 0 || cpu >= p.NumCPU() {
		return nil, fmt.Errorf("nitrosketch: cpu %d outside matrix's %d copies", cpu, p.NumCPU())
	}
	if p.ValueSize() != cfg.Rows*cfg.Width*4 || p.MaxEntries() != 1 {
		return nil, fmt.Errorf("nitrosketch: per-cpu matrix shape %dx%d does not fit rows=%d width=%d",
			p.MaxEntries(), p.ValueSize(), cfg.Rows, cfg.Width)
	}
	arr := p.CPU(cpu)
	if flavor != nf.Kernel {
		return newVM(flavor, cfg, arr)
	}
	s := &Sketch{cfg: cfg, arr: arr}
	inc := uint32(1) << cfg.ProbLog2
	wMask := uint32(cfg.Width - 1)
	// Offset the seed by CPU so shards draw independent sampling
	// streams, the way independent per-CPU pools would.
	s.geo = rpool.Must(rpool.NewGeoPool(PoolSize, prob(cfg.ProbLog2), geoSeed+uint64(cpu)))
	s.next = uint64(s.geo.Next()) - 1
	rows := uint64(cfg.Rows)
	data := arr.Data()
	s.Instance = &nf.NativeInstance{NFName: "nitrosketch", Fn: func(pkt []byte) uint64 {
		key := pkt[nf.OffKey : nf.OffKey+nf.KeyLen]
		base := s.cnt * rows
		lim := base + rows
		s.cnt++
		for s.next < lim {
			row := int(s.next - base)
			h := nhash.FastHash32(key, nhash.Seed(row))
			j := (row*cfg.Width + int(h&wMask)) * 4
			c := uint32(data[j]) | uint32(data[j+1])<<8 | uint32(data[j+2])<<16 | uint32(data[j+3])<<24
			c += inc
			data[j], data[j+1], data[j+2], data[j+3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
			s.next += uint64(s.geo.Next())
		}
		return vm.XDPDrop
	}}
	return s, nil
}

// EstimatePerCPU is the merge-on-read estimate over a shared per-CPU
// counter matrix: per-row counters are summed across every CPU's copy,
// then the minimum is taken over the merged rows (see
// cmsketch.EstimatePerCPU). Summing unbiased per-shard estimators over
// a hash-partitioned stream keeps the estimate unbiased.
func EstimatePerCPU(p *maps.PerCPUArray, cfg Config, key []byte) uint32 {
	wMask := uint32(cfg.Width - 1)
	min := ^uint32(0)
	for i := 0; i < cfg.Rows; i++ {
		h := nhash.FastHash32(key, nhash.Seed(i))
		j := (i*cfg.Width + int(h&wMask)) * 4
		var sum uint32
		for c := 0; c < p.NumCPU(); c++ {
			d := p.CPUData(c)
			sum += uint32(d[j]) | uint32(d[j+1])<<8 | uint32(d[j+2])<<16 | uint32(d[j+3])<<24
		}
		if sum < min {
			min = sum
		}
	}
	return min
}

// Estimate returns the sketch estimate for key.
func (s *Sketch) Estimate(key []byte) uint32 {
	wMask := uint32(s.cfg.Width - 1)
	min := ^uint32(0)
	read := func(i, j int) uint32 {
		if s.native != nil {
			return s.native[i*s.cfg.Width+j]
		}
		d := s.arr.Data()
		o := (i*s.cfg.Width + j) * 4
		return uint32(d[o]) | uint32(d[o+1])<<8 | uint32(d[o+2])<<16 | uint32(d[o+3])<<24
	}
	for i := 0; i < s.cfg.Rows; i++ {
		h := nhash.FastHash32(key, nhash.Seed(i))
		if c := read(i, int(h&wMask)); c < min {
			min = c
		}
	}
	return min
}

// buildEBPF emits the per-row helper-RNG update program.
func buildEBPF(fd int32, cfg Config, selMask, inc uint32) *asm.Builder {
	b := asm.New()
	wMask := int32(cfg.Width - 1)
	b.Mov(asm.R6, asm.R1)
	nfasm.EmitMapLookupConstOrExit(b, fd, 0, -4, "ns")
	b.Mov(asm.R7, asm.R0)
	for i := 0; i < cfg.Rows; i++ {
		skip := fmt.Sprintf("skip_%d", i)
		if !cfg.Stripped {
			b.Call(vm.HelperGetPrandomU32)
			if selMask != 0 {
				b.AndImm(asm.R0, int32(selMask))
				b.JmpImm(asm.JNE, asm.R0, 0, skip)
			}
		}
		nfasm.EmitFastHash64(b, asm.R6, nf.OffKey, nf.KeyLen, nhash.Seed(i),
			asm.R8, asm.R0, asm.R1, asm.R2, asm.R3)
		nfasm.EmitFold32(b, asm.R8, asm.R0)
		b.AndImm(asm.R8, wMask)
		b.LshImm(asm.R8, 2)
		b.Mov(asm.R0, asm.R7)
		b.Add(asm.R0, asm.R8)
		b.AddImm(asm.R0, int32(i*cfg.Width*4))
		b.Load(asm.R1, asm.R0, 0, 4)
		b.AddImm(asm.R1, int32(inc))
		b.Store(asm.R0, 0, asm.R1, 4)
		b.Label(skip)
	}
	b.MovImm(asm.R0, int32(vm.XDPDrop))
	b.Exit()
	return b
}

// prob converts a ProbLog2 exponent to the probability value.
func prob(k int) float64 { return 1 / float64(uint64(1)<<k) }

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// buildENetSTL emits the geo_rpool update program. The state map holds
// [rel u64][geo handle u64]: rel is the offset of the next selected
// (packet, row) pair relative to the current packet's first row. The
// fast path — no row selected — is one map lookup, a compare, and a
// store; update work runs only for selected rows.
//
// Registers: R6 ctx, R7 counters (looked up lazily), R8 state ptr,
// R9 rel. The current row is spilled to the stack across kfunc calls.
func buildENetSTL(fd, stateFD int32, cfg Config, inc uint32) *asm.Builder {
	b := asm.New()
	wMask := int32(cfg.Width - 1)
	rows := int32(cfg.Rows)
	b.Mov(asm.R6, asm.R1)
	nfasm.EmitMapLookupConstOrExit(b, stateFD, 0, -4, "st")
	b.Mov(asm.R8, asm.R0)
	b.Load(asm.R9, asm.R8, 0, 8) // rel
	// Fast path: nothing selected for this packet.
	b.JmpImm(asm.JGE, asm.R9, rows, "done")
	// Slow path: fetch the counter matrix once.
	nfasm.EmitMapLookupConstOrExit(b, fd, 0, -4, "ns")
	b.Mov(asm.R7, asm.R0)

	for i := 0; i < cfg.Rows; i++ {
		b.JmpImm(asm.JGE, asm.R9, rows, "done")
		// row = rel (bounded by the guard; re-mask for the verifier).
		b.Mov(asm.R0, asm.R9)
		b.AndImm(asm.R0, rows-1)
		b.Store(asm.R10, -32, asm.R0, 8)
		// seed = row*golden + 1 (nhash.Seed)
		b.Mov(asm.R3, asm.R0)
		b.LoadImm64(asm.R2, 0x9e3779b97f4a7c15)
		b.Mul(asm.R3, asm.R2)
		b.AddImm(asm.R3, 1)
		b.Mov(asm.R1, asm.R6)
		b.MovImm(asm.R2, nf.KeyLen)
		b.Kfunc(core.KfHashFast64)
		nfasm.EmitFold32(b, asm.R0, asm.R1)
		b.AndImm(asm.R0, wMask)
		b.LshImm(asm.R0, 2)
		// counter addr = buf + row*width*4 + idx*4. The reload from the
		// stack loses the verifier's range, so re-mask before scaling.
		b.Load(asm.R1, asm.R10, -32, 8)
		b.AndImm(asm.R1, rows-1)
		b.MulImm(asm.R1, int32(cfg.Width*4))
		b.Add(asm.R0, asm.R1)
		b.Add(asm.R0, asm.R7)
		b.Load(asm.R1, asm.R0, 0, 4)
		b.AddImm(asm.R1, int32(inc))
		b.Store(asm.R0, 0, asm.R1, 4)
		// rel += geo_next(handle): reload + recheck the handle, since
		// no register survives the hash kfunc to cache its null check.
		nfasm.EmitLoadHandleOrExit(b, asm.R8, 8, asm.R1, fmt.Sprintf("geo_%d", i))
		b.Kfunc(core.KfGeoNext)
		b.Add(asm.R9, asm.R0)
	}
	b.Label("done")
	b.SubImm(asm.R9, rows)
	b.Store(asm.R8, 0, asm.R9, 8)
	b.MovImm(asm.R0, int32(vm.XDPDrop))
	b.Exit()
	return b
}

// GeoPool exposes the Kernel flavour's geometric sampling pool (nil
// for the bytecode flavours, whose pools live behind eNetSTL handles).
// The conformance grid's chaos axis injects refill faults through it.
func (s *Sketch) GeoPool() *rpool.GeoPool { return s.geo }
