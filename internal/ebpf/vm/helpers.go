package vm

import (
	"fmt"
	"sync/atomic"
	"time"

	"enetstl/internal/trace"
)

// Helper IDs. Where a Linux equivalent exists the ID matches it;
// list/obj helpers (kernel-side kfuncs in modern Linux) get stable IDs
// in the 80+ range.
const (
	HelperMapLookup     = 1
	HelperMapUpdate     = 2
	HelperMapDelete     = 3
	HelperKtimeGetNS    = 5
	HelperGetPrandomU32 = 7

	HelperSpinLock   = 80
	HelperSpinUnlock = 81

	HelperObjNew        = 90
	HelperObjDrop       = 91
	HelperListPushFront = 92
	HelperListPushBack  = 93
	HelperListPopFront  = 94
	HelperListPopBack   = 95
	HelperKptrXchg      = 96
)

// Node and list-head layout used by the list helpers, mirroring
// bpf_list_node/bpf_list_head: nodes carry a 16-byte link header (next,
// prev) followed by payload; heads are 16 bytes (first, last).
const (
	NodeHeaderSize = 16
	ListHeadSize   = 16
)

// helperNames names the built-in helper IDs for telemetry, matching
// the kernel helper names where an equivalent exists.
var helperNames = map[int32]string{
	HelperMapLookup:     "map_lookup_elem",
	HelperMapUpdate:     "map_update_elem",
	HelperMapDelete:     "map_delete_elem",
	HelperKtimeGetNS:    "ktime_get_ns",
	HelperGetPrandomU32: "get_prandom_u32",
	HelperSpinLock:      "spin_lock",
	HelperSpinUnlock:    "spin_unlock",
	HelperObjNew:        "obj_new",
	HelperObjDrop:       "obj_drop",
	HelperListPushFront: "list_push_front",
	HelperListPushBack:  "list_push_back",
	HelperListPopFront:  "list_pop_front",
	HelperListPopBack:   "list_pop_back",
	HelperKptrXchg:      "kptr_xchg",
}

// HelperName returns the telemetry name for a helper ID.
func HelperName(id int32) string {
	if n, ok := helperNames[id]; ok {
		return n
	}
	return fmt.Sprintf("helper_%d", id)
}

// HelperFn is a native helper implementation. Args come from R1-R5; the
// returned value is placed in R0.
type HelperFn func(vm *VM, a1, a2, a3, a4, a5 uint64) (uint64, error)

// RegisterHelper installs fn under id, replacing any previous helper.
func (vm *VM) RegisterHelper(id int32, fn HelperFn) {
	slot := vm.helperSlot(id)
	if id == HelperMapLookup && vm.helperTab[slot] != nil {
		vm.lookupReplaced = true // the inline array lookup stands down
	}
	vm.helperTab[slot] = fn
}

// helperSlot returns the dense table index for a helper ID, allocating
// an empty slot on first sight. The predecoder calls it for every call
// instruction, so a program loaded before its helper is registered
// still resolves once registration happens (the slot fills in).
func (vm *VM) helperSlot(id int32) int32 {
	if idx, ok := vm.helperIdx[id]; ok {
		return idx
	}
	idx := int32(len(vm.helperTab))
	vm.helperTab = append(vm.helperTab, nil)
	vm.helperIdx[id] = idx
	return idx
}

// callHelper is the wire-loop entry: it resolves the ID through the
// slot map, then shares the dispatch path with the fast loop.
func (vm *VM) callHelper(id int32, r *[11]uint64) error {
	idx, ok := vm.helperIdx[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoHelper, id)
	}
	ret, err := vm.invokeHelper(idx, id, r[1], r[2], r[3], r[4], r[5])
	if err != nil {
		return err
	}
	r[0] = ret
	return nil
}

func (vm *VM) invokeHelper(idx, id int32, a1, a2, a3, a4, a5 uint64) (uint64, error) {
	fn := vm.helperTab[idx]
	if fn == nil {
		return 0, fmt.Errorf("%w: id %d", ErrNoHelper, id)
	}
	if ps := vm.curProg; ps != nil {
		start := time.Now()
		ret, err := fn(vm, a1, a2, a3, a4, a5)
		cs := ps.callStats(ps.Helpers, id, HelperName(id))
		cs.Count++
		cs.Ns += uint64(time.Since(start).Nanoseconds())
		vm.emitHelper(id, ret)
		return ret, err
	}
	ret, err := fn(vm, a1, a2, a3, a4, a5)
	vm.emitHelper(id, ret)
	return ret, err
}

// emitHelper records a helper completion for the sampled packet. Map
// helpers are excluded: their closures emit richer map_op events (with
// the miss flag) instead.
func (vm *VM) emitHelper(id int32, ret uint64) {
	if !vm.sampled {
		return
	}
	switch id {
	case HelperMapLookup, HelperMapUpdate, HelperMapDelete:
		return
	}
	vm.emitCall(trace.KindHelper, HelperName(id), ret)
}

func (vm *VM) mapFromPtr(p uint64) (mapIdx int, ok bool) {
	id := p >> RegionShift
	if p&offMask != 0 || id == 0 || id >= uint64(len(vm.regions)) || vm.regions[id].kind != regMap {
		return 0, false
	}
	return int(vm.regions[id].fd), true
}

func registerBuiltinHelpers(vm *VM) {
	vm.RegisterHelper(HelperMapLookup, func(vm *VM, a1, a2, _, _, _ uint64) (uint64, error) {
		idx, ok := vm.mapFromPtr(a1)
		if !ok {
			return 0, ErrBadPointer
		}
		m := vm.mapsByFD[idx]
		key, err := vm.Bytes(a2, m.KeySize())
		if err != nil {
			return 0, err
		}
		arena, off, ok := m.LookupArena(key)
		if st := vm.stats; st != nil {
			ms := st.mapStats(int32(idx), m.Type().String())
			ms.Lookup++
			if !ok {
				ms.Miss++
			}
		}
		if vm.sampled {
			vm.emitMapOp(int32(idx), m, "lookup", !ok)
		}
		if !ok {
			return 0, nil
		}
		return vm.mapArenas[idx][arena]<<RegionShift + uint64(off), nil
	})
	vm.RegisterHelper(HelperMapUpdate, func(vm *VM, a1, a2, a3, _, _ uint64) (uint64, error) {
		idx, ok := vm.mapFromPtr(a1)
		if !ok {
			return 0, ErrBadPointer
		}
		m := vm.mapsByFD[idx]
		key, err := vm.Bytes(a2, m.KeySize())
		if err != nil {
			return 0, err
		}
		val, err := vm.Bytes(a3, m.ValueSize())
		if err != nil {
			return 0, err
		}
		if st := vm.stats; st != nil {
			st.mapStats(int32(idx), m.Type().String()).Update++
		}
		if vm.sampled {
			vm.emitMapOp(int32(idx), m, "update", false)
		}
		if err := m.Update(key, val); err != nil {
			return uint64(^uint64(0)), nil // -1, as the kernel returns -E*
		}
		return 0, nil
	})
	vm.RegisterHelper(HelperMapDelete, func(vm *VM, a1, a2, _, _, _ uint64) (uint64, error) {
		idx, ok := vm.mapFromPtr(a1)
		if !ok {
			return 0, ErrBadPointer
		}
		m := vm.mapsByFD[idx]
		key, err := vm.Bytes(a2, m.KeySize())
		if err != nil {
			return 0, err
		}
		if st := vm.stats; st != nil {
			st.mapStats(int32(idx), m.Type().String()).Delete++
		}
		if vm.sampled {
			vm.emitMapOp(int32(idx), m, "delete", false)
		}
		if err := m.Delete(key); err != nil {
			return uint64(^uint64(0)), nil
		}
		return 0, nil
	})
	// The simulated clock never advances: no catalog program reads
	// time, and a replay must not depend on the host's.
	vm.RegisterHelper(HelperKtimeGetNS, func(vm *VM, _, _, _, _, _ uint64) (uint64, error) {
		return 0, nil
	})
	vm.RegisterHelper(HelperGetPrandomU32, func(vm *VM, _, _, _, _, _ uint64) (uint64, error) {
		return uint64(vm.Prandom32()), nil
	})
	vm.RegisterHelper(HelperSpinLock, func(vm *VM, a1, _, _, _, _ uint64) (uint64, error) {
		if _, err := vm.Bytes(a1, 4); err != nil {
			return 0, err
		}
		// A real CAS so the lock has hardware cost, as bpf_spin_lock does.
		for !atomic.CompareAndSwapUint32(&vm.lockWord, 0, 1) {
		}
		vm.lockHeld++
		return 0, nil
	})
	vm.RegisterHelper(HelperSpinUnlock, func(vm *VM, a1, _, _, _, _ uint64) (uint64, error) {
		if _, err := vm.Bytes(a1, 4); err != nil {
			return 0, err
		}
		if vm.lockHeld == 0 {
			return 0, ErrLockImbalance
		}
		atomic.StoreUint32(&vm.lockWord, 0)
		vm.lockHeld--
		return 0, nil
	})
	vm.RegisterHelper(HelperObjNew, func(vm *VM, a1, _, _, _, _ uint64) (uint64, error) {
		size := int(a1)
		if size <= 0 || size > 1<<20 {
			return 0, fmt.Errorf("obj_new: bad size %d", size)
		}
		if vm.allocFault != nil && vm.allocFault() {
			return 0, nil // allocation failure: NULL, programs must check
		}
		return vm.AllocMem(NodeHeaderSize + size), nil
	})
	vm.RegisterHelper(HelperObjDrop, func(vm *VM, a1, _, _, _, _ uint64) (uint64, error) {
		return 0, vm.FreeMem(a1)
	})
	vm.RegisterHelper(HelperListPushFront, listPush(true))
	vm.RegisterHelper(HelperListPushBack, listPush(false))
	vm.RegisterHelper(HelperListPopFront, listPop(true))
	vm.RegisterHelper(HelperListPopBack, listPop(false))
	vm.RegisterHelper(HelperKptrXchg, func(vm *VM, a1, a2, _, _, _ uint64) (uint64, error) {
		old, err := vm.load(a1, 8)
		if err != nil {
			return 0, err
		}
		if err := vm.store(a1, 8, a2); err != nil {
			return 0, err
		}
		return old, nil
	})
}

// listPush returns a push-front or push-back list helper. The BPF
// linked-list API requires the protecting spin lock to be held; the
// runtime enforces that, as the verifier does in Linux.
func listPush(front bool) HelperFn {
	return func(vm *VM, head, node uint64, _, _, _ uint64) (uint64, error) {
		if vm.lockHeld == 0 {
			return 0, ErrLockRequired
		}
		first, err := vm.load(head, 8)
		if err != nil {
			return 0, err
		}
		last, err := vm.load(head+8, 8)
		if err != nil {
			return 0, err
		}
		if _, err := vm.Bytes(node, NodeHeaderSize); err != nil {
			return 0, err
		}
		if front {
			if err := vm.store(node, 8, first); err != nil { // node.next = first
				return 0, err
			}
			if err := vm.store(node+8, 8, 0); err != nil { // node.prev = 0
				return 0, err
			}
			if first != 0 {
				if err := vm.store(first+8, 8, node); err != nil {
					return 0, err
				}
			} else {
				if err := vm.store(head+8, 8, node); err != nil {
					return 0, err
				}
			}
			return 0, vm.store(head, 8, node)
		}
		if err := vm.store(node, 8, 0); err != nil { // node.next = 0
			return 0, err
		}
		if err := vm.store(node+8, 8, last); err != nil { // node.prev = last
			return 0, err
		}
		if last != 0 {
			if err := vm.store(last, 8, node); err != nil {
				return 0, err
			}
		} else {
			if err := vm.store(head, 8, node); err != nil {
				return 0, err
			}
		}
		return 0, vm.store(head+8, 8, node)
	}
}

func listPop(front bool) HelperFn {
	return func(vm *VM, head uint64, _, _, _, _ uint64) (uint64, error) {
		if vm.lockHeld == 0 {
			return 0, ErrLockRequired
		}
		var node uint64
		var err error
		if front {
			node, err = vm.load(head, 8)
		} else {
			node, err = vm.load(head+8, 8)
		}
		if err != nil {
			return 0, err
		}
		if node == 0 {
			return 0, nil
		}
		next, err := vm.load(node, 8)
		if err != nil {
			return 0, err
		}
		prev, err := vm.load(node+8, 8)
		if err != nil {
			return 0, err
		}
		if prev != 0 {
			if err := vm.store(prev, 8, next); err != nil {
				return 0, err
			}
		} else {
			if err := vm.store(head, 8, next); err != nil {
				return 0, err
			}
		}
		if next != 0 {
			if err := vm.store(next+8, 8, prev); err != nil {
				return 0, err
			}
		} else {
			if err := vm.store(head+8, 8, prev); err != nil {
				return 0, err
			}
		}
		return node, nil
	}
}
