// Package skiplist implements the skip-list key-value query of NFD-HCS
// ([47], paper Case Study 1). A skip list needs a variable number of
// persisted, linked, dynamically allocated nodes — non-contiguous
// memory that pure eBPF cannot express (the paper's P1 finding), so
// this NF has only two flavours:
//
//   - Kernel: native Go over the eNetSTL memory wrapper.
//   - ENetSTL: verified bytecode over the memory-wrapper kfuncs
//     (node_alloc/set_owner/connect/next/release), with the
//     acquire/release discipline checked by the verifier.
//
// Keys are the 16-byte packet key ordered as a (k0,k1) u64 pair; values
// are the 32-byte packet payload. Node heights are derived
// deterministically from the key hash so both flavours build identical
// structures. Deletion demonstrates lazy safety checking: the bottom
// level is bridged explicitly and every higher-level predecessor edge
// is cleared automatically when the node is freed.
package skiplist

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/bitops"
	"enetstl/internal/core"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/memwrapper"
	"enetstl/internal/nf"
	"enetstl/internal/nhash"
)

// Structure constants.
const (
	MaxHeight    = 16
	NodeDataSize = 64 // k0(8) k1(8) value(32) height(4) pad(12)
	offValue     = 16
	offHeight    = 48
	ValueSize    = 32

	maxSteps = 128 // flat traversal budget per operation

	heightSeed = 99
)

// Verdicts.
const (
	NotFound  = 1
	Inserted  = 2
	Partial   = 4 // traversal budget exhausted mid-insert
	DeletedV  = 5
	FoundBase = 2000 // + first value byte
)

// SkipList is one built instance.
type SkipList struct {
	flavor nf.Flavor

	// Shared native structure state (kernel flavour only).
	proxy *memwrapper.Proxy
	head  *memwrapper.Node

	// VM flavour.
	machine *vm.VM
	progs   map[uint32]*vm.Program
}

// Name returns the NF name.
func (s *SkipList) Name() string { return "skiplist" }

// Flavor returns the implementation flavour.
func (s *SkipList) Flavor() nf.Flavor { return s.flavor }

// heightOf derives a deterministic tower height from the key.
func heightOf(key []byte) int {
	h := nhash.FastHash64(key, heightSeed)
	t := bitops.CTZ(h) + 1
	if h == 0 {
		t = 1
	}
	if t > MaxHeight {
		t = MaxHeight
	}
	return t
}

// New builds the NF. Flavor EBPF returns the paper's P1 error.
func New(flavor nf.Flavor) (*SkipList, error) {
	switch flavor {
	case nf.Kernel:
		s := &SkipList{flavor: flavor, proxy: memwrapper.Must(memwrapper.NewProxy(NodeDataSize, MaxHeight))}
		head, err := s.proxy.Alloc(MaxHeight)
		if err != nil {
			return nil, err
		}
		if err := s.proxy.SetOwner(head); err != nil {
			return nil, err
		}
		_ = s.proxy.Release(head) // ownership keeps it alive
		s.head = head
		return s, nil
	case nf.ENetSTL:
		machine := vm.New()
		lib := core.Attach(machine, core.Config{NodeDataSize: NodeDataSize})
		proxy := memwrapper.Must(memwrapper.NewProxy(NodeDataSize, MaxHeight))
		s := &SkipList{flavor: flavor, machine: machine, progs: make(map[uint32]*vm.Program), proxy: proxy}
		ph := lib.NewProxyHandle(proxy)
		head, err := proxy.Alloc(MaxHeight)
		if err != nil {
			return nil, err
		}
		if err := proxy.SetOwner(head); err != nil {
			return nil, err
		}
		_ = proxy.Release(head)
		lib.SetRoot(ph, head)
		state := maps.Must(maps.NewArray(8, 1))
		sFD := machine.RegisterMap(state)
		binary.LittleEndian.PutUint64(state.Data(), ph)

		opts := verifier.Options{CtxSize: nf.PktSize, StateBudget: 1 << 22}
		for op, build := range map[uint32]func(int32) *asm.Builder{
			nf.OpLookup: buildLookup,
			nf.OpUpdate: buildInsert,
			nf.OpDelete: buildDelete,
		} {
			ins, err := build(sFD).Program()
			if err != nil {
				return nil, fmt.Errorf("skiplist op %d: assemble: %w", op, err)
			}
			p, err := verifier.LoadAndVerify(machine, fmt.Sprintf("skiplist_op%d", op), ins, opts)
			if err != nil {
				return nil, err
			}
			s.progs[op] = p
		}
		return s, nil
	case nf.EBPF:
		return nil, fmt.Errorf("skiplist: not implementable in pure eBPF: " +
			"variable numbers of persisted dynamic allocations are not supported (paper P1)")
	}
	return nil, fmt.Errorf("skiplist: unknown flavor %v", flavor)
}

// Process handles one packet: op from the packet selects
// lookup/update/delete on the packet's key.
func (s *SkipList) Process(pkt []byte) (uint64, error) {
	op := binary.LittleEndian.Uint32(pkt[nf.OffOp:])
	if s.flavor == nf.Kernel {
		return s.processNative(pkt, op)
	}
	p, ok := s.progs[op]
	if !ok {
		return 0, fmt.Errorf("skiplist: bad op %d", op)
	}
	return s.machine.Run(p, pkt)
}

// Proxy exposes the memory-wrapper proxy backing the structure (nil
// for the pure-eBPF flavour, which cannot be built anyway). Chaos
// harnesses use it to inject allocation faults and check invariants.
func (s *SkipList) Proxy() *memwrapper.Proxy { return s.proxy }

// VM exposes the backing machine (nil for the Kernel flavour).
func (s *SkipList) VM() *vm.VM { return s.machine }

// CheckInvariants validates the proxy's structural invariants.
func (s *SkipList) CheckInvariants() error {
	if s.proxy == nil {
		return nil
	}
	return s.proxy.CheckInvariants()
}

func keyOf(pkt []byte) (uint64, uint64) {
	return binary.LittleEndian.Uint64(pkt[0:]), binary.LittleEndian.Uint64(pkt[8:])
}

func nodeKey(n *memwrapper.Node) (uint64, uint64) {
	return binary.LittleEndian.Uint64(n.Data()[0:]), binary.LittleEndian.Uint64(n.Data()[8:])
}

// cmp orders (a0,a1) against (b0,b1): -1, 0, or 1.
func cmp(a0, a1, b0, b1 uint64) int {
	switch {
	case a0 < b0:
		return -1
	case a0 > b0:
		return 1
	case a1 < b1:
		return -1
	case a1 > b1:
		return 1
	}
	return 0
}

// processNative mirrors the bytecode flavour step for step, using the
// memory wrapper's reference discipline.
func (s *SkipList) processNative(pkt []byte, op uint32) (uint64, error) {
	p := s.proxy
	k0, k1 := keyOf(pkt)

	var newNode *memwrapper.Node
	height := 0
	if op == nf.OpUpdate {
		height = heightOf(pkt[nf.OffKey : nf.OffKey+nf.KeyLen])
		var err error
		newNode, err = p.Alloc(height)
		if err != nil {
			// Allocation failure (memory pressure or an injected fault):
			// shed the insert, mirroring the bytecode flavour's NULL check.
			return Partial, nil
		}
		binary.LittleEndian.PutUint64(newNode.Data()[0:], k0)
		binary.LittleEndian.PutUint64(newNode.Data()[8:], k1)
		copy(newNode.Data()[offValue:offValue+ValueSize], pkt[nf.OffValue:nf.OffValue+ValueSize])
		binary.LittleEndian.PutUint32(newNode.Data()[offHeight:], uint32(height))
		if err := p.SetOwner(newNode); err != nil {
			return 0, err
		}
	}

	cur := s.head
	if err := p.Acquire(cur); err != nil {
		return 0, err
	}
	lvl := MaxHeight - 1
	for step := 0; step < maxSteps && lvl >= 0; step++ {
		next, err := p.Next(cur, lvl)
		if err != nil {
			return 0, err
		}
		if next == nil {
			if op == nf.OpUpdate && lvl < height {
				if err := p.Connect(cur, lvl, newNode); err != nil {
					return 0, err
				}
			}
			lvl--
			continue
		}
		n0, n1 := nodeKey(next)
		switch c := cmp(n0, n1, k0, k1); {
		case c < 0: // advance
			_ = p.Release(cur)
			cur = next
		case c > 0 || (op == nf.OpUpdate): // descend (inserts go before equals)
			if op == nf.OpUpdate && lvl < height {
				if err := p.Connect(newNode, lvl, next); err != nil {
					return 0, err
				}
				if err := p.Connect(cur, lvl, newNode); err != nil {
					return 0, err
				}
			}
			_ = p.Release(next)
			lvl--
		default: // equal
			switch op {
			case nf.OpLookup:
				v := uint64(next.Data()[offValue])
				_ = p.Release(next)
				_ = p.Release(cur)
				return FoundBase + v, nil
			case nf.OpDelete:
				// Bridge this level around the target; at level 0 also
				// free it. Any edge missed here is cleared by lazy
				// safety checking when the node is freed.
				nn, err := p.Next(next, lvl)
				if err != nil {
					return 0, err
				}
				if nn != nil {
					if err := p.Connect(cur, lvl, nn); err != nil {
						return 0, err
					}
					_ = p.Release(nn)
				} else {
					if err := p.Disconnect(cur, lvl); err != nil {
						return 0, err
					}
				}
				if lvl == 0 {
					_ = p.UnsetOwner(next)
					_ = p.Release(next)
					_ = p.Release(cur)
					return DeletedV, nil
				}
				_ = p.Release(next)
				lvl--
			}
		}
	}
	_ = p.Release(cur)
	if op == nf.OpUpdate {
		_ = p.Release(newNode)
		if lvl >= 0 {
			return Partial, nil
		}
		return Inserted, nil
	}
	return NotFound, nil
}
