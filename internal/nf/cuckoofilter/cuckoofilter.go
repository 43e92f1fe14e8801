// Package cuckoofilter implements the Cuckoo Filter membership-test NF
// ([25]): 16-bit fingerprints in two candidate buckets of four slots.
// The datapath operation is the membership test of a packet's 5-tuple.
//
//   - Kernel: native Go; fingerprint scan via simd.FindU16.
//   - EBPF: bytecode; software hash plus four scalar compares per bucket.
//   - ENetSTL: bytecode; kf_hash_fast64 plus kf_find_u16 per bucket.
package cuckoofilter

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

// Layout: a bucket is four u16 fingerprints (8 bytes).
const (
	Slots      = 4
	bucketSize = Slots * 2
	seedKey    = 1
	seedFp     = 2
)

// Verdicts returned by the datapath.
const (
	Member    = vm.XDPPass
	NotMember = vm.XDPDrop
)

// Config sizes the filter.
type Config struct {
	Buckets int // power of two
}

func (c Config) validate() error {
	if c.Buckets <= 0 || c.Buckets&(c.Buckets-1) != 0 {
		return fmt.Errorf("cuckoofilter: buckets %d must be a power of two", c.Buckets)
	}
	return nil
}

// maxKicks bounds one insert's random walk.
const maxKicks = 500

// Filter is one built instance.
type Filter struct {
	nf.Instance
	cfg   Config
	table []uint16
	arr   *maps.Array
	rng   uint64

	// saturated is set by the first walk that runs out of kicks: from
	// then on an insert only tries its two candidate buckets, as the
	// filter of [25] stops accepting once a kick sequence has failed.
	saturated bool
	kicks     int // displacements performed, over the filter's life
}

func mix(key []byte) (fp uint16, i1 uint32) {
	h := nhash.FastHash64(key, seedKey)
	fp = uint16(h >> 48)
	if fp == 0 {
		fp = 1
	}
	return fp, uint32(h)
}

func altBucket(i1 uint32, fp uint16, mask uint32) uint32 {
	var fb [4]byte
	binary.LittleEndian.PutUint16(fb[:], fp)
	return (i1 ^ nhash.FastHash32(fb[:], seedFp)) & mask
}

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*Filter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Filter{cfg: cfg, table: make([]uint16, cfg.Buckets*Slots), rng: 0x243f6a8885a308d3}
	switch flavor {
	case nf.Kernel:
		f.Instance = &nf.NativeInstance{NFName: "cuckoofilter", Fn: f.testNative}
		return f, nil
	case nf.EBPF, nf.ENetSTL:
		machine := vm.New()
		f.arr = maps.Must(maps.NewArray(bucketSize, cfg.Buckets))
		fd := machine.RegisterMap(f.arr)
		var b *asm.Builder
		if flavor == nf.EBPF {
			b = buildEBPF(fd, cfg)
		} else {
			core.Attach(machine, core.Config{})
			b = buildENetSTL(fd, cfg)
		}
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("cuckoofilter: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "cuckoofilter", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		f.Instance = nf.NewVMInstance("cuckoofilter", flavor, machine, p)
		return f, nil
	}
	return nil, fmt.Errorf("cuckoofilter: unknown flavor %v", flavor)
}

func (f *Filter) bucket(b uint32) []uint16 {
	off := int(b) * Slots
	return f.table[off : off+Slots]
}

// Insert adds key to the set; false means the filter is too full. A
// refused insert leaves the table as it found it, so every key Insert
// accepted stays a member.
func (f *Filter) Insert(key []byte) bool {
	mask := uint32(f.cfg.Buckets - 1)
	fp, i1r := mix(key)
	i1 := i1r & mask
	if f.tryPlace(i1, fp) || f.tryPlace(altBucket(i1, fp, mask), fp) {
		return true
	}
	if f.saturated {
		return false
	}
	return f.walk(i1, fp, mask)
}

// walk places fp by random-walk displacement from bucket b. When the
// walk runs out of kicks it undoes its displacements in reverse, so the
// fingerprint left homeless is fp itself, and marks the filter
// saturated. Undoing needs only the victims: altBucket is an involution
// for a given fingerprint, so each step's bucket is the alternate of the
// next step's, taken with the fingerprint that step evicted.
func (f *Filter) walk(b uint32, fp uint16, mask uint32) bool {
	var victims [maxKicks]uint8
	cur := fp
	for kick := range victims {
		f.rng ^= f.rng << 13
		f.rng ^= f.rng >> 7
		f.rng ^= f.rng << 17
		victim := int(f.rng) & (Slots - 1)
		victims[kick] = uint8(victim)
		f.kicks++
		evicted := f.bucket(b)[victim]
		f.put(b, victim, cur)
		cur = evicted
		b = altBucket(b, cur, mask)
		if f.tryPlace(b, cur) {
			return true
		}
	}
	for kick := len(victims) - 1; kick >= 0; kick-- {
		b = altBucket(b, cur, mask)
		victim := int(victims[kick])
		placed := f.bucket(b)[victim]
		f.put(b, victim, cur)
		cur = placed
	}
	f.saturated = true
	return false
}

func (f *Filter) tryPlace(b uint32, fp uint16) bool {
	for i, have := range f.bucket(b) {
		if have == 0 {
			f.put(b, i, fp)
			return true
		}
	}
	return false
}

// put is the only writer of table slots: fp goes into slot i of bucket
// b and, when a datapath map is attached, little-endian to the same
// offset of its arena, so the image the program reads never differs
// from the native table.
func (f *Filter) put(b uint32, i int, fp uint16) {
	at := int(b)*Slots + i
	f.table[at] = fp
	if f.arr != nil {
		binary.LittleEndian.PutUint16(f.arr.Data()[at*2:], fp)
	}
}

func (f *Filter) testNative(pkt []byte) uint64 {
	mask := uint32(f.cfg.Buckets - 1)
	fp, i1r := mix(pkt[nf.OffKey : nf.OffKey+nf.KeyLen])
	i1 := i1r & mask
	if simd.FindU16(f.bucket(i1), fp) >= 0 {
		return Member
	}
	if simd.FindU16(f.bucket(altBucket(i1, fp, mask)), fp) >= 0 {
		return Member
	}
	return NotMember
}

// emitFpAndBucket leaves i1 in R8 and the non-zero fingerprint in R9.
func emitFpAndBucket(b *asm.Builder, mask int32) {
	nfasm.EmitFastHash64(b, asm.R6, nf.OffKey, nf.KeyLen, seedKey,
		asm.R7, asm.R0, asm.R1, asm.R2, asm.R3)
	b.Mov(asm.R8, asm.R7).AndImm(asm.R8, mask)
	b.Mov(asm.R9, asm.R7).RshImm(asm.R9, 48)
	b.JmpImm(asm.JNE, asm.R9, 0, "fp_ok")
	b.MovImm(asm.R9, 1)
	b.Label("fp_ok")
}

func emitAltBucket(b *asm.Builder, mask int32) {
	b.StoreImm(asm.R10, -16, 0, 4) // zero the word, then write the fp16
	b.Store(asm.R10, -16, asm.R9, 2)
	nfasm.EmitFastHash64(b, asm.R10, -16, 4, seedFp,
		asm.R7, asm.R0, asm.R1, asm.R2, asm.R3)
	nfasm.EmitFold32(b, asm.R7, asm.R0)
	b.Xor(asm.R8, asm.R7)
	b.AndImm(asm.R8, mask)
}

func buildEBPF(fd int32, cfg Config) *asm.Builder {
	b := asm.New()
	mask := int32(cfg.Buckets - 1)
	b.Mov(asm.R6, asm.R1)
	emitFpAndBucket(b, mask)
	scan := func(tag string) {
		nfasm.EmitMapLookupOrExit(b, fd, asm.R8, -4, tag)
		b.Mov(asm.R7, asm.R0)
		for s := 0; s < Slots; s++ {
			b.Load(asm.R0, asm.R7, int16(s*2), 2)
			b.Jmp(asm.JEQ, asm.R0, asm.R9, "member")
		}
	}
	scan("b1")
	emitAltBucket(b, mask)
	scan("b2")
	b.MovImm(asm.R0, int32(NotMember))
	b.Exit()
	b.Label("member")
	b.MovImm(asm.R0, int32(Member))
	b.Exit()
	return b
}

func buildENetSTL(fd int32, cfg Config) *asm.Builder {
	b := asm.New()
	mask := int32(cfg.Buckets - 1)
	b.Mov(asm.R6, asm.R1)
	b.Mov(asm.R1, asm.R6)
	b.MovImm(asm.R2, nf.KeyLen)
	b.MovImm(asm.R3, seedKey)
	b.Kfunc(core.KfHashFast64)
	b.Mov(asm.R8, asm.R0).AndImm(asm.R8, mask)
	b.Mov(asm.R9, asm.R0).RshImm(asm.R9, 48)
	b.JmpImm(asm.JNE, asm.R9, 0, "fp_ok")
	b.MovImm(asm.R9, 1)
	b.Label("fp_ok")
	scan := func(tag string) {
		nfasm.EmitMapLookupOrExit(b, fd, asm.R8, -4, tag)
		b.Mov(asm.R1, asm.R0)
		b.MovImm(asm.R2, Slots*2)
		b.Mov(asm.R3, asm.R9)
		b.Kfunc(core.KfFindU16)
		b.JmpImm(asm.JNE, asm.R0, -1, "member")
	}
	scan("b1")
	b.StoreImm(asm.R10, -16, 0, 4)
	b.Store(asm.R10, -16, asm.R9, 2)
	b.Mov(asm.R1, asm.R10).AddImm(asm.R1, -16)
	b.MovImm(asm.R2, 4)
	b.MovImm(asm.R3, seedFp)
	b.Kfunc(core.KfHashFast64)
	nfasm.EmitFold32(b, asm.R0, asm.R1)
	b.Xor(asm.R8, asm.R0)
	b.AndImm(asm.R8, mask)
	scan("b2")
	b.MovImm(asm.R0, int32(NotMember))
	b.Exit()
	b.Label("member")
	b.MovImm(asm.R0, int32(Member))
	b.Exit()
	return b
}
