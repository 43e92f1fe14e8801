// Package heavykeeper implements the HeavyKeeper top-k counting NF
// ([81]): d rows of (fingerprint, count) buckets with exponential-decay
// eviction. On a fingerprint mismatch the resident count decays with
// probability b^-count; when it reaches zero the bucket is captured by
// the new flow. Estimates are the maximum matching-bucket count.
//
//   - Kernel: native Go; pooled randomness, native hashing.
//   - EBPF: bytecode; software hashes and one bpf_get_prandom_u32 per
//     decay attempt.
//   - ENetSTL: bytecode; kf_hash_fast64 and kf_rpool_next.
//
// The decay thresholds (2^32 * b^-c, c in [0,64)) are precomputed into
// the head of the datapath buffer so all flavours share them.
package heavykeeper

import (
	"encoding/binary"
	"fmt"
	"math"

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

// Decay base (the paper's b = 1.08).
const DecayBase = 1.08

// PoolSize is the capacity of the random pool the Kernel and eNetSTL
// flavours draw decay coins from (the eBPF flavour calls
// bpf_get_prandom_u32 instead). Exported so a per-tenant rpool quota can
// be decided without building the NF.
const PoolSize = 4096

const (
	fpSeed   = 77
	tableLen = 64 // decay threshold entries
	bucketSz = 8  // fp u32 + count u32
)

// Config sizes the sketch.
type Config struct {
	Rows  int
	Width int // buckets per row, power of two
}

func (c Config) validate() error {
	if c.Rows <= 0 || c.Rows > 8 {
		return fmt.Errorf("heavykeeper: rows %d out of range [1,8]", c.Rows)
	}
	if c.Width <= 0 || c.Width&(c.Width-1) != 0 {
		return fmt.Errorf("heavykeeper: width %d must be a power of two", c.Width)
	}
	return nil
}

// Layout: [decay thresholds 64*u32][rows*width buckets of 8B].
func bufSize(c Config) int { return tableLen*4 + c.Rows*c.Width*bucketSz }

func bucketOff(c Config, row, col int) int {
	return tableLen*4 + (row*c.Width+col)*bucketSz
}

// Sketch is one built instance.
type Sketch struct {
	nf.Instance
	cfg Config

	buf  []byte // kernel flavour
	arr  *maps.Array
	pool *rpool.Pool
}

func fillDecayTable(buf []byte) {
	for c := 0; c < tableLen; c++ {
		t := math.Pow(DecayBase, -float64(c)) * float64(1<<32)
		if t > float64(math.MaxUint32) {
			t = float64(math.MaxUint32)
		}
		binary.LittleEndian.PutUint32(buf[c*4:], uint32(t))
	}
}

func keyFP(key []byte) uint32 {
	fp := nhash.FastHash32(key, fpSeed)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// DegradeHeadSample is the sketch's opt-in overload degradation (see
// cmsketch): heavy hitters survive head-sampling by definition, so the
// guard can thin aggressively.
func (s *Sketch) DegradeHeadSample() int { return 8 }

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*Sketch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sketch{cfg: cfg}
	switch flavor {
	case nf.Kernel:
		s.buf = make([]byte, bufSize(cfg))
		fillDecayTable(s.buf)
		s.pool = rpool.Must(rpool.NewPool(PoolSize, 0x517cc1b7))
		s.Instance = &nf.NativeInstance{NFName: "heavykeeper", Fn: s.updateNative}
		return s, nil
	case nf.EBPF, nf.ENetSTL:
		machine := vm.New()
		s.arr = maps.Must(maps.NewArray(bufSize(cfg), 1))
		fillDecayTable(s.arr.Data())
		fd := machine.RegisterMap(s.arr)
		var b *asm.Builder
		if flavor == nf.EBPF {
			b = buildProgram(fd, 0, cfg, false)
		} else {
			lib := core.Attach(machine, core.Config{})
			state := maps.Must(maps.NewArray(8, 1))
			sFD := machine.RegisterMap(state)
			binary.LittleEndian.PutUint64(state.Data(), core.MustHandle(lib.NewPoolHandle(PoolSize, 0x517cc1b7)))
			b = buildProgram(fd, sFD, cfg, true)
		}
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("heavykeeper: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "heavykeeper", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		s.Instance = nf.NewVMInstance("heavykeeper", flavor, machine, p)
		return s, nil
	}
	return nil, fmt.Errorf("heavykeeper: unknown flavor %v", flavor)
}

func (s *Sketch) store() []byte {
	if s.buf != nil {
		return s.buf
	}
	return s.arr.Data()
}

// updateNative is the kernel-flavour datapath.
func (s *Sketch) updateNative(pkt []byte) uint64 {
	key := pkt[nf.OffKey : nf.OffKey+nf.KeyLen]
	fp := keyFP(key)
	mask := uint32(s.cfg.Width - 1)
	buf := s.buf
	for i := 0; i < s.cfg.Rows; i++ {
		h := nhash.FastHash32(key, nhash.Seed(i))
		off := bucketOff(s.cfg, i, int(h&mask))
		bfp := binary.LittleEndian.Uint32(buf[off:])
		cnt := binary.LittleEndian.Uint32(buf[off+4:])
		switch {
		case bfp == fp:
			binary.LittleEndian.PutUint32(buf[off+4:], cnt+1)
		case cnt == 0:
			binary.LittleEndian.PutUint32(buf[off:], fp)
			binary.LittleEndian.PutUint32(buf[off+4:], 1)
		default:
			c := cnt
			if c >= tableLen {
				c = tableLen - 1
			}
			thresh := binary.LittleEndian.Uint32(buf[c*4:])
			if s.pool.Next() < thresh {
				cnt--
				if cnt == 0 {
					binary.LittleEndian.PutUint32(buf[off:], fp)
					binary.LittleEndian.PutUint32(buf[off+4:], 1)
				} else {
					binary.LittleEndian.PutUint32(buf[off+4:], cnt)
				}
			}
		}
	}
	return vm.XDPDrop
}

// Estimate returns the max matching-bucket count for key.
func (s *Sketch) Estimate(key []byte) uint32 {
	fp := keyFP(key)
	mask := uint32(s.cfg.Width - 1)
	buf := s.store()
	var best uint32
	for i := 0; i < s.cfg.Rows; i++ {
		h := nhash.FastHash32(key, nhash.Seed(i))
		off := bucketOff(s.cfg, i, int(h&mask))
		if binary.LittleEndian.Uint32(buf[off:]) == fp {
			if c := binary.LittleEndian.Uint32(buf[off+4:]); c > best {
				best = c
			}
		}
	}
	return best
}

// buildProgram emits the update datapath. enetstl switches hashing and
// randomness to kfuncs.
func buildProgram(fd, sFD int32, cfg Config, enetstl bool) *asm.Builder {
	b := asm.New()
	mask := int32(cfg.Width - 1)
	b.Mov(asm.R6, asm.R1)
	nfasm.EmitMapLookupConstOrExit(b, fd, 0, -4, "hk")
	b.Mov(asm.R7, asm.R0)
	if enetstl {
		nfasm.EmitMapLookupConstOrExit(b, sFD, 0, -4, "st")
		nfasm.EmitLoadHandleOrExit(b, asm.R0, 0, asm.R9, "pool")
	}
	// fp -> stack slot -16 (computed once).
	if enetstl {
		b.Mov(asm.R1, asm.R6)
		b.MovImm(asm.R2, nf.KeyLen)
		b.MovImm(asm.R3, fpSeed)
		b.Kfunc(core.KfHashFast64)
		b.Mov(asm.R8, asm.R0)
		nfasm.EmitFold32(b, asm.R8, asm.R0)
	} else {
		nfasm.EmitFastHash64(b, asm.R6, nf.OffKey, nf.KeyLen, fpSeed,
			asm.R8, asm.R0, asm.R1, asm.R2, asm.R3)
		nfasm.EmitFold32(b, asm.R8, asm.R0)
	}
	b.JmpImm(asm.JNE, asm.R8, 0, "fp_ok")
	b.MovImm(asm.R8, 1)
	b.Label("fp_ok")
	b.Store(asm.R10, -16, asm.R8, 4)

	for i := 0; i < cfg.Rows; i++ {
		matched := fmt.Sprintf("match_%d", i)
		empty := fmt.Sprintf("empty_%d", i)
		capped := fmt.Sprintf("cap_%d", i)
		nodecay := fmt.Sprintf("nodecay_%d", i)
		capture := fmt.Sprintf("capture_%d", i)
		next := fmt.Sprintf("next_%d", i)

		// R8 = &bucket
		if enetstl {
			b.Mov(asm.R1, asm.R6)
			b.MovImm(asm.R2, nf.KeyLen)
			b.LoadImm64(asm.R3, nhash.Seed(i))
			b.Kfunc(core.KfHashFast64)
			b.Mov(asm.R8, asm.R0)
			nfasm.EmitFold32(b, asm.R8, asm.R0)
		} else {
			nfasm.EmitFastHash64(b, asm.R6, nf.OffKey, nf.KeyLen, nhash.Seed(i),
				asm.R8, asm.R0, asm.R1, asm.R2, asm.R3)
			nfasm.EmitFold32(b, asm.R8, asm.R0)
		}
		b.AndImm(asm.R8, mask)
		b.LshImm(asm.R8, 3)
		b.Add(asm.R8, asm.R7)
		b.AddImm(asm.R8, int32(bucketOff(cfg, i, 0)))
		// Load bucket fp and count.
		b.Load(asm.R1, asm.R8, 0, 4) // bfp
		b.Load(asm.R2, asm.R8, 4, 4) // cnt
		b.Load(asm.R0, asm.R10, -16, 4)
		b.Jmp(asm.JEQ, asm.R1, asm.R0, matched)
		b.JmpImm(asm.JEQ, asm.R2, 0, empty)
		// Mismatch on an occupied bucket: decay with prob b^-cnt.
		b.Mov(asm.R3, asm.R2)
		b.JmpImm(asm.JLT, asm.R3, tableLen, capped)
		b.MovImm(asm.R3, tableLen-1)
		b.Label(capped)
		b.LshImm(asm.R3, 2)
		b.Add(asm.R3, asm.R7)
		b.Load(asm.R3, asm.R3, 0, 4) // threshold
		b.Store(asm.R10, -24, asm.R3, 8)
		if enetstl {
			b.Mov(asm.R1, asm.R9)
			b.Kfunc(core.KfRpoolNext)
		} else {
			b.Call(vm.HelperGetPrandomU32)
		}
		b.Load(asm.R3, asm.R10, -24, 8)
		b.Jmp(asm.JGE, asm.R0, asm.R3, nodecay)
		// Decay: count--, capture when it reaches zero.
		b.Load(asm.R2, asm.R8, 4, 4)
		b.SubImm(asm.R2, 1)
		b.Mov32(asm.R2, asm.R2)
		b.JmpImm(asm.JEQ, asm.R2, 0, capture)
		b.Store(asm.R8, 4, asm.R2, 4)
		b.Ja(next)
		b.Label(nodecay)
		b.Ja(next)
		b.Label(matched)
		b.AddImm(asm.R2, 1)
		b.Store(asm.R8, 4, asm.R2, 4)
		b.Ja(next)
		b.Label(empty)
		b.Label(capture)
		b.Load(asm.R0, asm.R10, -16, 4)
		b.Store(asm.R8, 0, asm.R0, 4)
		b.MovImm(asm.R1, 1)
		b.Store(asm.R8, 4, asm.R1, 4)
		b.Label(next)
	}
	b.MovImm(asm.R0, int32(vm.XDPDrop))
	b.Exit()
	return b
}

// Pool exposes the Kernel flavour's randomness pool (nil for the
// bytecode flavours, whose pools live behind eNetSTL handles). Chaos
// harnesses use it to inject refill faults.
func (s *Sketch) Pool() *rpool.Pool { return s.pool }
