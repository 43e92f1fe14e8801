// Package eiffel implements Eiffel's cFFS bitmap priority queue ([64]):
// a hierarchy of occupancy bitmaps over per-priority counters, giving
// O(levels) find-first-set dequeues across 64^levels distinct
// priorities. The datapath operations are enqueue (set bits along the
// level path, bump the priority's counter) and dequeue (FFS walk down
// the levels to the minimum occupied priority).
//
//   - Kernel: native Go using bitops.FFS (single TZCNT per level).
//   - EBPF: bytecode with the software shift-cascade FFS per level (the
//     missing-bit-instruction penalty of §2.2 P2).
//   - ENetSTL: bytecode calling kf_ffs64 per level.
package eiffel

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/bitops"
	"enetstl/internal/core"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nf/nfasm"
)

// Config selects the bitmap depth: 64^Levels priorities.
type Config struct {
	Levels int // 1..3

	// Stripped removes the bit-manipulation behaviour (observation O1)
	// from the EBPF flavour: no bitmap maintenance or FFS walks; the
	// dequeue priority comes from the packet. Used by Fig. 1.
	Stripped bool
}

func (c Config) validate() error {
	if c.Levels < 1 || c.Levels > 3 {
		return fmt.Errorf("eiffel: levels %d out of range [1,3]", c.Levels)
	}
	return nil
}

// Verdicts: enqueue returns Enqueued; dequeue returns FoundBase+prio or
// Empty. Empty is XDP_DROP, not 0: an empty queue is a normal outcome
// (and the steady state when faults shed enqueues), never an abort.
const (
	Enqueued  = vm.XDPPass
	Empty     = vm.XDPDrop
	FoundBase = 1000
)

type layout struct {
	levelOff  [3]int // byte offset of each level's bitmap
	countsOff int
	prios     int
	size      int
}

func mkLayout(levels int) layout {
	var l layout
	off := 0
	words := 1
	for i := 0; i < levels; i++ {
		l.levelOff[i] = off
		off += words * 8
		words *= 64
	}
	l.countsOff = off
	l.prios = 1
	for i := 0; i < levels; i++ {
		l.prios *= 64
	}
	l.size = off + l.prios*4
	return l
}

// Queue is one built instance.
type Queue struct {
	nf.Instance
	cfg Config
	lay layout

	native []byte
	arr    *maps.Array
}

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*Queue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	q := &Queue{cfg: cfg, lay: mkLayout(cfg.Levels)}
	switch flavor {
	case nf.Kernel:
		q.native = make([]byte, q.lay.size)
		q.Instance = &nf.NativeInstance{NFName: "eiffel", Fn: q.processNative}
		return q, nil
	case nf.EBPF, nf.ENetSTL:
		machine := vm.New()
		q.arr = maps.Must(maps.NewArray(q.lay.size, 1))
		fd := machine.RegisterMap(q.arr)
		if flavor == nf.ENetSTL {
			core.Attach(machine, core.Config{})
		}
		b := buildProgram(fd, cfg, q.lay, flavor == nf.ENetSTL)
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("eiffel: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "eiffel", ins, verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		q.Instance = nf.NewVMInstance("eiffel", flavor, machine, p)
		return q, nil
	}
	return nil, fmt.Errorf("eiffel: unknown flavor %v", flavor)
}

// store returns the backing bytes (native or map arena).
func (q *Queue) store() []byte {
	if q.native != nil {
		return q.native
	}
	return q.arr.Data()
}

func (q *Queue) word(level int, idx int) uint64 {
	return binary.LittleEndian.Uint64(q.store()[q.lay.levelOff[level]+idx*8:])
}

func (q *Queue) setWord(level, idx int, w uint64) {
	binary.LittleEndian.PutUint64(q.store()[q.lay.levelOff[level]+idx*8:], w)
}

// processNative is the kernel-flavour datapath.
func (q *Queue) processNative(pkt []byte) uint64 {
	L := q.cfg.Levels
	op := binary.LittleEndian.Uint32(pkt[nf.OffOp:])
	if op == nf.OpEnqueue {
		prio := int(binary.LittleEndian.Uint32(pkt[nf.OffArg:])) & (q.lay.prios - 1)
		c := q.store()[q.lay.countsOff+prio*4:]
		binary.LittleEndian.PutUint32(c, binary.LittleEndian.Uint32(c)+1)
		for l := 0; l < L; l++ {
			b := prio >> (6 * (L - 1 - l))
			q.setWord(l, b>>6, q.word(l, b>>6)|1<<(uint(b)&63))
		}
		return Enqueued
	}
	// Dequeue: FFS walk down.
	acc := 0
	for l := 0; l < L; l++ {
		w := q.word(l, acc)
		if w == 0 {
			return Empty
		}
		acc = acc<<6 + bitops.FFS(w) - 1
	}
	prio := acc
	c := q.store()[q.lay.countsOff+prio*4:]
	n := binary.LittleEndian.Uint32(c) - 1
	binary.LittleEndian.PutUint32(c, n)
	if n == 0 {
		for l := L - 1; l >= 0; l-- {
			b := prio >> (6 * (L - 1 - l))
			w := q.word(l, b>>6) &^ (1 << (uint(b) & 63))
			q.setWord(l, b>>6, w)
			if w != 0 {
				break
			}
		}
	}
	return FoundBase + uint64(prio)
}

// buildProgram emits the combined enqueue/dequeue program; enetstl
// selects kf_ffs64 over the software FFS cascade.
func buildProgram(fd int32, cfg Config, lay layout, enetstl bool) *asm.Builder {
	L := cfg.Levels
	b := asm.New()
	b.Mov(asm.R6, asm.R1)
	nfasm.EmitMapLookupConstOrExit(b, fd, 0, -4, "eif")
	b.Mov(asm.R7, asm.R0)
	b.Load(asm.R0, asm.R6, nf.OffOp, 4)
	b.JmpImm(asm.JNE, asm.R0, nf.OpEnqueue, "dequeue")

	// --- Enqueue ---
	b.Load(asm.R8, asm.R6, nf.OffArg, 4)
	b.AndImm(asm.R8, int32(lay.prios-1))
	// counts[prio]++
	b.Mov(asm.R0, asm.R8).LshImm(asm.R0, 2).Add(asm.R0, asm.R7).AddImm(asm.R0, int32(lay.countsOff))
	b.Load(asm.R1, asm.R0, 0, 4).AddImm(asm.R1, 1).Store(asm.R0, 0, asm.R1, 4)
	// set the level-path bits
	for l := 0; cfg.Stripped == false && l < L; l++ {
		shift := int32(6 * (L - 1 - l))
		b.Mov(asm.R1, asm.R8)
		if shift > 0 {
			b.RshImm(asm.R1, shift)
		}
		b.Mov(asm.R2, asm.R1).RshImm(asm.R2, 6)
		b.AndImm(asm.R1, 63)
		b.Mov(asm.R0, asm.R2).LshImm(asm.R0, 3).Add(asm.R0, asm.R7).AddImm(asm.R0, int32(lay.levelOff[l]))
		b.Load(asm.R4, asm.R0, 0, 8)
		b.MovImm(asm.R3, 1).Lsh(asm.R3, asm.R1)
		b.Or(asm.R4, asm.R3)
		b.Store(asm.R0, 0, asm.R4, 8)
	}
	b.MovImm(asm.R0, int32(Enqueued))
	b.Exit()

	// --- Dequeue ---
	b.Label("dequeue")
	if cfg.Stripped {
		// Behaviour-stripped: the priority comes from the packet; no
		// FFS walk, no bitmap clears.
		b.Load(asm.R8, asm.R6, nf.OffArg, 4)
		b.AndImm(asm.R8, int32(lay.prios-1))
		b.Mov(asm.R0, asm.R8).LshImm(asm.R0, 2).Add(asm.R0, asm.R7).AddImm(asm.R0, int32(lay.countsOff))
		b.Load(asm.R1, asm.R0, 0, 4)
		b.SubImm(asm.R1, 1)
		b.Store(asm.R0, 0, asm.R1, 4)
		b.Mov(asm.R0, asm.R8)
		b.AddImm(asm.R0, FoundBase)
		b.Exit()
	}
	b.MovImm(asm.R8, 0) // acc
	for l := 0; l < L; l++ {
		b.Mov(asm.R0, asm.R8).LshImm(asm.R0, 3).Add(asm.R0, asm.R7).AddImm(asm.R0, int32(lay.levelOff[l]))
		b.Load(asm.R9, asm.R0, 0, 8)
		b.JmpImm(asm.JEQ, asm.R9, 0, "empty")
		if enetstl {
			b.Mov(asm.R1, asm.R9)
			b.Kfunc(core.KfFFS64)
			b.Mov(asm.R1, asm.R0)
			b.SubImm(asm.R1, 1) // kf_ffs64 is 1-based
		} else {
			nfasm.EmitSoftCTZ64(b, asm.R9, asm.R1, asm.R2, asm.R3)
		}
		b.AndImm(asm.R1, 63)
		b.LshImm(asm.R8, 6)
		b.Add(asm.R8, asm.R1)
	}
	// prio in R8; counts[prio]--
	b.Mov(asm.R0, asm.R8).LshImm(asm.R0, 2).Add(asm.R0, asm.R7).AddImm(asm.R0, int32(lay.countsOff))
	b.Load(asm.R1, asm.R0, 0, 4)
	b.SubImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 4)
	b.Mov32(asm.R1, asm.R1)
	b.JmpImm(asm.JNE, asm.R1, 0, "found")
	// Count hit zero: clear bits bottom-up until a non-empty word.
	for l := L - 1; l >= 0; l-- {
		shift := int32(6 * (L - 1 - l))
		b.Mov(asm.R2, asm.R8)
		if shift > 0 {
			b.RshImm(asm.R2, shift)
		}
		b.Mov(asm.R3, asm.R2).AndImm(asm.R3, 63)
		b.RshImm(asm.R2, 6)
		b.Mov(asm.R4, asm.R2).LshImm(asm.R4, 3).Add(asm.R4, asm.R7).AddImm(asm.R4, int32(lay.levelOff[l]))
		b.Load(asm.R5, asm.R4, 0, 8)
		b.MovImm(asm.R2, 1).Lsh(asm.R2, asm.R3)
		b.Xor(asm.R5, asm.R2)
		b.Store(asm.R4, 0, asm.R5, 8)
		b.JmpImm(asm.JNE, asm.R5, 0, "found")
	}
	b.Ja("found")

	b.Label("empty")
	b.MovImm(asm.R0, int32(Empty))
	b.Exit()
	b.Label("found")
	b.Mov(asm.R0, asm.R8)
	b.AddImm(asm.R0, FoundBase)
	b.Exit()
	return b
}
