// Package vbf implements the vector-of-Bloom-filters membership NF
// ([36], DPDK Membership Library's vBF mode): up to 32 sets share one
// table of 32-bit words; querying a key ANDs the words at k hash
// positions, yielding the bitmask of sets that may contain the key.
//
//   - Kernel: native Go.
//   - EBPF: bytecode; k software hashes per query.
//   - ENetSTL: bytecode; k kf_hash_fast64 calls.
//
// All flavours compute the identical function, so the control plane's
// inserts are shared.
package vbf

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/core"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nf/nfasm"
	"enetstl/internal/nhash"
)

// MatchBase is added to the set bitmask in the verdict (so a zero mask
// is distinguishable from program failure).
const MatchBase = 1 << 32

// Sets is the number of sets the vector holds: one bit of a table word
// each.
const Sets = 32

// Config sizes the filter vector.
type Config struct {
	Bits   int // table entries (u32 words), power of two
	Hashes int // k
}

func (c Config) validate() error {
	if c.Bits <= 0 || c.Bits&(c.Bits-1) != 0 {
		return fmt.Errorf("vbf: bits %d must be a power of two", c.Bits)
	}
	if c.Hashes <= 0 || c.Hashes > 8 {
		return fmt.Errorf("vbf: hashes %d out of range [1,8]", c.Hashes)
	}
	return nil
}

// VBF is one built instance.
type VBF struct {
	nf.Instance
	cfg   Config
	table []uint32
	arr   *maps.Array
}

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*VBF, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	v := &VBF{cfg: cfg, table: make([]uint32, cfg.Bits)}
	switch flavor {
	case nf.Kernel:
		v.Instance = &nf.NativeInstance{NFName: "vbf", Fn: func(pkt []byte) uint64 {
			return MatchBase + uint64(v.Query(pkt[nf.OffKey:nf.OffKey+nf.KeyLen]))
		}}
		return v, nil
	case nf.EBPF, nf.ENetSTL:
		machine := vm.New()
		v.arr = maps.Must(maps.NewArray(cfg.Bits*4, 1))
		fd := machine.RegisterMap(v.arr)
		if flavor == nf.ENetSTL {
			core.Attach(machine, core.Config{})
		}
		b := buildProgram(fd, cfg, flavor == nf.ENetSTL)
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("vbf: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "vbf", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		v.Instance = nf.NewVMInstance("vbf", flavor, machine, p)
		return v, nil
	}
	return nil, fmt.Errorf("vbf: unknown flavor %v", flavor)
}

// Insert adds key to set setID (control plane; shared across flavours).
func (v *VBF) Insert(key []byte, setID int) {
	if setID < 0 || setID >= Sets {
		panic("vbf: setID out of range")
	}
	mask := uint32(v.cfg.Bits - 1)
	for i := 0; i < v.cfg.Hashes; i++ {
		h := nhash.FastHash32(key, nhash.Seed(i)) & mask
		v.table[h] |= 1 << uint(setID)
		if v.arr != nil {
			off := int(h) * 4
			binary.LittleEndian.PutUint32(v.arr.Data()[off:], v.table[h])
		}
	}
}

// Query returns the candidate-set bitmask for key.
func (v *VBF) Query(key []byte) uint32 {
	mask := uint32(v.cfg.Bits - 1)
	acc := ^uint32(0)
	for i := 0; i < v.cfg.Hashes; i++ {
		h := nhash.FastHash32(key, nhash.Seed(i)) & mask
		acc &= v.table[h]
	}
	return acc
}

func buildProgram(fd int32, cfg Config, enetstl bool) *asm.Builder {
	b := asm.New()
	mask := int32(cfg.Bits - 1)
	b.Mov(asm.R6, asm.R1)
	nfasm.EmitMapLookupConstOrExit(b, fd, 0, -4, "vbf")
	b.Mov(asm.R7, asm.R0)
	b.MovImm(asm.R9, -1) // acc, all ones
	for i := 0; i < cfg.Hashes; i++ {
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
		b.LshImm(asm.R8, 2)
		b.Add(asm.R8, asm.R7)
		b.Load(asm.R1, asm.R8, 0, 4)
		b.And(asm.R9, asm.R1)
	}
	b.Mov32(asm.R9, asm.R9)
	b.LoadImm64(asm.R0, MatchBase)
	b.Add(asm.R0, asm.R9)
	b.Exit()
	return b
}
