// Package cuckooswitch implements the Cuckoo Switch FIB lookup NF
// ([82]) over a blocked cuckoo hash [19]: each key maps to two candidate
// buckets of eight (signature, value) slots. The datapath operation is
// the lookup of a packet's 5-tuple.
//
//   - Kernel: native Go; signature scan via simd.FindU32.
//   - EBPF: bytecode; software hash plus eight scalar compares per
//     bucket (no SIMD in the ISA).
//   - ENetSTL: bytecode; kf_hash_fast64 plus one kf_find_u32 per bucket
//     (the paper's hw_hash + find_simd composition).
//
// Inserts are a control-plane operation (as in the paper's FIB): each
// slot write goes to the native table and, in place, to the datapath
// map's arena.
package cuckooswitch

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
	"enetstl/internal/simd"
)

// Layout constants: one bucket is 8 sig u32s followed by 8 value u32s.
const (
	Slots      = 8
	bucketSize = Slots * 4 * 2
	seedKey    = 1
	seedSig    = 2
)

// Config sizes the table.
type Config struct {
	Buckets int // power of two

	// Stripped removes the bucket-comparison behaviour (observation O6)
	// from the EBPF flavour: hashes and bucket lookups still run but
	// signatures are not scanned. Used by the Fig. 1 experiment.
	Stripped bool
	// LowLevel makes the ENetSTL flavour use the per-instruction SIMD
	// wrappers (kf_vec_cmp + kf_vec_movemask through memory) instead of
	// the fused kf_find_u32 — the Fig. 6 "COMP Low" ablation.
	LowLevel bool
}

func (c Config) validate() error {
	if c.Buckets <= 0 || c.Buckets&(c.Buckets-1) != 0 {
		return fmt.Errorf("cuckooswitch: buckets %d must be a power of two", c.Buckets)
	}
	return nil
}

// Switch is one built instance.
type Switch struct {
	nf.Instance
	cfg Config

	// table is the logical [buckets][2*Slots]uint32 store; the kernel
	// flavour reads it directly, VM flavours read arr, which put keeps
	// word-for-word equal to it.
	table []uint32
	arr   *maps.Array

	// saturated is set by the first walk that runs out of kicks: from
	// then on an insert only tries its two candidate buckets.
	saturated bool
	kicks     int // displacements performed, over the switch's life
}

// maxKicks bounds one insert's displacement walk.
const maxKicks = 500

// Miss is the verdict returned when a key is not in the FIB.
const Miss = vm.XDPDrop

func mix(key []byte) (h uint64, sig uint32, i1 uint32) {
	h = nhash.FastHash64(key, seedKey)
	sig = uint32(h >> 32)
	if sig == 0 {
		sig = 1
	}
	return h, sig, uint32(h)
}

func altBucket(i1, sig, mask uint32) uint32 {
	var sb [4]byte
	binary.LittleEndian.PutUint32(sb[:], sig)
	return (i1 ^ nhash.FastHash32(sb[:], seedSig)) & mask
}

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*Switch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Switch{cfg: cfg, table: make([]uint32, cfg.Buckets*2*Slots)}
	switch flavor {
	case nf.Kernel:
		s.Instance = &nf.NativeInstance{NFName: "cuckooswitch", Fn: s.lookupNative}
		return s, nil
	case nf.EBPF, nf.ENetSTL:
		machine := vm.New()
		s.arr = maps.Must(maps.NewArray(bucketSize, cfg.Buckets))
		fd := machine.RegisterMap(s.arr)
		var b *asm.Builder
		if flavor == nf.EBPF {
			b = buildEBPF(fd, cfg)
		} else {
			core.Attach(machine, core.Config{})
			b = buildENetSTL(fd, cfg)
		}
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("cuckooswitch: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "cuckooswitch", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		s.Instance = nf.NewVMInstance("cuckooswitch", flavor, machine, p)
		return s, nil
	}
	return nil, fmt.Errorf("cuckooswitch: unknown flavor %v", flavor)
}

func (s *Switch) sigs(b uint32) []uint32 {
	off := int(b) * 2 * Slots
	return s.table[off : off+Slots]
}

func (s *Switch) vals(b uint32) []uint32 {
	off := int(b)*2*Slots + Slots
	return s.table[off : off+Slots]
}

// Insert adds key -> value to the FIB, or updates the value of a key
// already in it, kicking entries cuckoo-style when both candidate
// buckets are full. It returns false when the table cannot accommodate
// a new key (insertion path too long, or the table already saturated);
// a refused insert leaves the table as it found it, so no entry an
// earlier Insert accepted is lost.
func (s *Switch) Insert(key []byte, value uint32) bool {
	mask := uint32(s.cfg.Buckets - 1)
	_, sig, i1r := mix(key)
	i1 := i1r & mask
	// One pass over the candidate buckets in lookup order: a slot that
	// holds sig is the entry the lookup answers from, so the value goes
	// there; otherwise the first empty slot takes the key. A free slot in
	// i1 ends the pass, because the key cannot be in its alternate
	// bucket: only a full i1 sends a key there (an insert, or a walk
	// evicting it), and no slot is ever emptied again.
	if s.update(i1, sig, value) {
		return true
	}
	if s.update(altBucket(i1, sig, mask), sig, value) {
		return true
	}
	if s.saturated {
		return false
	}
	return s.walk(i1, sig, value, mask)
}

// walk places (sig, value) by displacement from bucket b, evicting slot
// kick%Slots at each step. When the walk runs out of kicks it undoes its
// displacements in reverse and marks the switch saturated. Undoing needs
// no record: the victim slot is a function of the step, and altBucket is
// an involution for a given signature, so each step's bucket is the
// alternate of the next step's, taken with the signature that step
// evicted.
func (s *Switch) walk(b, sig, value, mask uint32) bool {
	curSig, curVal := sig, value
	for kick := 0; kick < maxKicks; kick++ {
		s.kicks++
		victim := kick % Slots
		sv, vv := s.sigs(b)[victim], s.vals(b)[victim]
		s.put(b, victim, curSig, curVal)
		curSig, curVal = sv, vv
		b = altBucket(b, curSig, mask)
		if s.update(b, curSig, curVal) {
			return true
		}
	}
	for kick := maxKicks - 1; kick >= 0; kick-- {
		b = altBucket(b, curSig, mask)
		victim := kick % Slots
		sv, vv := s.sigs(b)[victim], s.vals(b)[victim]
		s.put(b, victim, curSig, curVal)
		curSig, curVal = sv, vv
	}
	s.saturated = true
	return false
}

// update writes val to the slot of bucket b that holds sig or, failing
// that, to b's first empty slot; false when b is full without sig. A
// slot is only ever filled as its bucket's first empty one and never
// emptied, so a bucket's entries are a prefix of it and the scan ends
// at the first empty slot.
func (s *Switch) update(b, sig, val uint32) bool {
	for i, sg := range s.sigs(b) {
		if sg == sig || sg == 0 {
			s.put(b, i, sig, val)
			return true
		}
	}
	return false
}

// put is the only writer of table slots: (sig, val) go into slot i of
// bucket b and, when a datapath map is attached, little-endian to the
// same offsets of its arena — one in-place bpf_map_update_elem, so the
// image the program reads never differs from the native table.
func (s *Switch) put(b uint32, i int, sig, val uint32) {
	at := int(b)*2*Slots + i
	s.table[at], s.table[at+Slots] = sig, val
	if s.arr != nil {
		data := s.arr.Data()
		binary.LittleEndian.PutUint32(data[at*4:], sig)
		binary.LittleEndian.PutUint32(data[(at+Slots)*4:], val)
	}
}

// lookupNative is the kernel-flavour datapath.
func (s *Switch) lookupNative(pkt []byte) uint64 {
	mask := uint32(s.cfg.Buckets - 1)
	_, sig, i1r := mix(pkt[nf.OffKey : nf.OffKey+nf.KeyLen])
	i1 := i1r & mask
	if i := simd.FindU32(s.sigs(i1), sig); i >= 0 {
		return uint64(s.vals(i1)[i])
	}
	i2 := altBucket(i1, sig, mask)
	if i := simd.FindU32(s.sigs(i2), sig); i >= 0 {
		return uint64(s.vals(i2)[i])
	}
	return Miss
}

// emitSigAndBucket computes h of the packet key, leaving i1 in R8 and
// the non-zero signature in R9. Clobbers R0-R3 and R7.
func emitSigAndBucket(b *asm.Builder, mask int32) {
	nfasm.EmitFastHash64(b, asm.R6, nf.OffKey, nf.KeyLen, seedKey,
		asm.R7, asm.R0, asm.R1, asm.R2, asm.R3)
	b.Mov(asm.R8, asm.R7).AndImm(asm.R8, mask)
	b.Mov(asm.R9, asm.R7).RshImm(asm.R9, 32)
	b.Mov32(asm.R9, asm.R9)
	b.JmpImm(asm.JNE, asm.R9, 0, "sig_ok")
	b.MovImm(asm.R9, 1)
	b.Label("sig_ok")
}

// emitAltBucket replaces R8 (i1) with the alternate bucket index, using
// the signature in R9. Clobbers R0-R5 and R7.
func emitAltBucket(b *asm.Builder, mask int32) {
	b.Store(asm.R10, -16, asm.R9, 4)
	nfasm.EmitFastHash64(b, asm.R10, -16, 4, seedSig,
		asm.R7, asm.R0, asm.R1, asm.R2, asm.R3)
	nfasm.EmitFold32(b, asm.R7, asm.R0)
	b.Xor(asm.R8, asm.R7)
	b.AndImm(asm.R8, mask)
}

// buildEBPF emits the pure-eBPF lookup: software hashes and unrolled
// scalar signature compares.
func buildEBPF(fd int32, cfg Config) *asm.Builder {
	b := asm.New()
	mask := int32(cfg.Buckets - 1)
	b.Mov(asm.R6, asm.R1)
	emitSigAndBucket(b, mask)

	scan := func(tag string) {
		nfasm.EmitMapLookupOrExit(b, fd, asm.R8, -4, tag)
		b.Mov(asm.R7, asm.R0)
		if cfg.Stripped {
			// Behaviour-stripped: keep the hash and bucket lookup but
			// return the first slot's value without any comparison.
			b.Load(asm.R0, asm.R7, Slots*4, 4)
			b.Exit()
		}
		for s := 0; s < Slots; s++ {
			b.Load(asm.R0, asm.R7, int16(s*4), 4)
			b.Jmp(asm.JEQ, asm.R0, asm.R9, fmt.Sprintf("hit_%s_%d", tag, s))
		}
	}
	emitHits := func(tag string) {
		for s := 0; s < Slots; s++ {
			b.Label(fmt.Sprintf("hit_%s_%d", tag, s))
			b.Load(asm.R0, asm.R7, int16(Slots*4+s*4), 4)
			b.Exit()
		}
	}

	scan("b1")
	emitAltBucket(b, mask)
	scan("b2")
	b.MovImm(asm.R0, int32(Miss))
	b.Exit()
	emitHits("b1")
	emitHits("b2")
	return b
}

// buildENetSTL emits the eNetSTL lookup: one hash kfunc and one
// find_simd kfunc per bucket.
func buildENetSTL(fd int32, cfg Config) *asm.Builder {
	b := asm.New()
	mask := int32(cfg.Buckets - 1)
	b.Mov(asm.R6, asm.R1)

	// h = kf_hash_fast64(key, KeyLen, seedKey)
	b.Mov(asm.R1, asm.R6)
	b.MovImm(asm.R2, nf.KeyLen)
	b.MovImm(asm.R3, seedKey)
	b.Kfunc(core.KfHashFast64)
	b.Mov(asm.R8, asm.R0).AndImm(asm.R8, mask)
	b.Mov(asm.R9, asm.R0).RshImm(asm.R9, 32)
	b.Mov32(asm.R9, asm.R9)
	b.JmpImm(asm.JNE, asm.R9, 0, "sig_ok")
	b.MovImm(asm.R9, 1)
	b.Label("sig_ok")

	scan := func(tag string) {
		nfasm.EmitMapLookupOrExit(b, fd, asm.R8, -4, tag)
		b.Mov(asm.R7, asm.R0)
		if cfg.LowLevel {
			// Fig. 6 ablation: per-instruction wrappers. The compare
			// mask round-trips through stack memory, then movemask and
			// a software bit scan finish the job (Listing 1's warning).
			b.Mov(asm.R1, asm.R10).AddImm(asm.R1, -64)
			b.Mov(asm.R2, asm.R7)
			b.Mov(asm.R3, asm.R9)
			b.Kfunc(core.KfVecCmpU32)
			b.Mov(asm.R1, asm.R10).AddImm(asm.R1, -64)
			b.Kfunc(core.KfVecMoveMask)
			b.JmpImm(asm.JEQ, asm.R0, 0, "miss_"+tag)
			nfasm.EmitSoftCTZ64(b, asm.R0, asm.R1, asm.R2, asm.R3)
			b.Mov(asm.R0, asm.R1)
		} else {
			// kf_find_u32(sigs, 32 bytes, sig)
			b.Mov(asm.R1, asm.R7)
			b.MovImm(asm.R2, Slots*4)
			b.Mov(asm.R3, asm.R9)
			b.Kfunc(core.KfFindU32)
			b.JmpImm(asm.JEQ, asm.R0, -1, "miss_"+tag)
		}
		b.AndImm(asm.R0, Slots-1)
		b.LshImm(asm.R0, 2)
		b.Add(asm.R0, asm.R7)
		b.Load(asm.R0, asm.R0, Slots*4, 4)
		b.Exit()
		b.Label("miss_" + tag)
	}

	scan("b1")
	// i2 = i1 ^ fold32(kf_hash_fast64(sig, 4, seedSig)), masked.
	b.Store(asm.R10, -16, asm.R9, 4)
	b.Mov(asm.R1, asm.R10).AddImm(asm.R1, -16)
	b.MovImm(asm.R2, 4)
	b.MovImm(asm.R3, seedSig)
	b.Kfunc(core.KfHashFast64)
	nfasm.EmitFold32(b, asm.R0, asm.R1)
	b.Xor(asm.R8, asm.R0)
	b.AndImm(asm.R8, mask)
	scan("b2")
	b.MovImm(asm.R0, int32(Miss))
	b.Exit()
	return b
}
