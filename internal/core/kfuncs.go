package core

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/bitops"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/listbuckets"
	"enetstl/internal/nhash"
	"enetstl/internal/rpool"
	"enetstl/internal/simd"
)

// The boundary contract: a kfunc never copies program memory. It works
// in place on the slice vm.Bytes returned, through the byte-view scans of
// simd, bitops and nhash. u32Slice and putU32Slice are the deliberate
// exception and serve only the three kf_vec_* wrappers, whose load/store
// round trips are what the Fig. 6 ablation measures.

// u32Slice copies a byte region out into little-endian uint32 lanes (the
// low-level interface's costly SIMD load).
func u32Slice(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		j := i * 4
		out[i] = uint32(b[j]) | uint32(b[j+1])<<8 | uint32(b[j+2])<<16 | uint32(b[j+3])<<24
	}
	return out
}

func putU32Slice(b []byte, v []uint32) {
	for i, x := range v {
		j := i * 4
		b[j], b[j+1], b[j+2], b[j+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
	}
}

func incU32(b []byte, i int) {
	j := i * 4
	v := uint32(b[j]) | uint32(b[j+1])<<8 | uint32(b[j+2])<<16 | uint32(b[j+3])<<24
	v++
	b[j], b[j+1], b[j+2], b[j+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte, i int) uint32 {
	j := i * 4
	return uint32(b[j]) | uint32(b[j+1])<<8 | uint32(b[j+2])<<16 | uint32(b[j+3])<<24
}

func (l *Lib) registerBitops() {
	scalar1 := vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgScalar}}, Ret: vm.RetScalar}
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfFFS64, Name: "enetstl_ffs64", Meta: scalar1,
		Impl: func(_ *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			return uint64(bitops.FFS(a1)), nil
		}})
}

func (l *Lib) registerHash() {
	// kf_hash_fast64(keyPtr, keyLen, seed) -> u64.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfHashFast64, Name: "enetstl_hash_fast64",
		Meta: vm.KfuncMeta{NumArgs: 3, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar}, {Kind: vm.ArgScalar},
		}, Ret: vm.RetScalar},
		Impl: func(machine *vm.VM, a1, a2, a3, _, _ uint64) (uint64, error) {
			key, err := machine.Bytes(a1, int(a2))
			if err != nil {
				return 0, err
			}
			return nhash.FastHash64(key, a3), nil
		}})
	// kf_hash_n(keyPtr, keyLen, outPtr, outBytes): the low-level
	// interface — all hash values are written to program memory.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfHashN, Name: "enetstl_hash_n",
		Meta: vm.KfuncMeta{NumArgs: 4, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar},
			{Kind: vm.ArgPtrToMem, SizeArg: 4}, {Kind: vm.ArgScalar},
		}, Ret: vm.RetVoid},
		Impl: func(machine *vm.VM, a1, a2, a3, a4, _ uint64) (uint64, error) {
			key, err := machine.Bytes(a1, int(a2))
			if err != nil {
				return 0, err
			}
			out, err := machine.Bytes(a3, int(a4))
			if err != nil {
				return 0, err
			}
			for i := 0; i+4 <= len(out); i += 4 {
				binary.LittleEndian.PutUint32(out[i:], nhash.FastHash32(key, nhash.Seed(i/4)))
			}
			return 0, nil
		}})

	// flags for the fused matrix ops: rows<<32 | mask.
	matrixOp := func(id int32, name string,
		op func(buf []byte, rows int, mask uint32, key []byte) uint64) {
		l.vm.RegisterKfunc(&vm.Kfunc{ID: id, Name: name,
			Meta: vm.KfuncMeta{NumArgs: 5, Args: [5]vm.ArgSpec{
				{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar},
				{Kind: vm.ArgPtrToMem, SizeArg: 4}, {Kind: vm.ArgScalar},
				{Kind: vm.ArgScalar},
			}, Ret: vm.RetScalar},
			Impl: func(machine *vm.VM, a1, a2, a3, a4, a5 uint64) (uint64, error) {
				buf, err := machine.Bytes(a1, int(a2))
				if err != nil {
					return 0, err
				}
				key, err := machine.Bytes(a3, int(a4))
				if err != nil {
					return 0, err
				}
				rows := int(a5 >> 32)
				mask := uint32(a5)
				if rows <= 0 || mask == ^uint32(0) {
					return 0, fmt.Errorf("%s: bad flags %#x", name, a5)
				}
				if rows*(int(mask)+1)*4 > len(buf) {
					return 0, fmt.Errorf("%s: matrix %dx%d exceeds buffer %d", name, rows, mask+1, len(buf))
				}
				return op(buf, rows, mask, key), nil
			}})
	}
	// kf_hash_cnt: fused multi-hash + counter increment (Listing 2).
	matrixOp(KfHashCnt, "enetstl_hash_cnt", func(buf []byte, rows int, mask uint32, key []byte) uint64 {
		w := int(mask) + 1
		for i := 0; i < rows; i++ {
			h := nhash.FastHash32(key, nhash.Seed(i))
			incU32(buf, i*w+int(h&mask))
		}
		return 0
	})

	// kf_hash_cmp: the fused "comparing after hashing" of §4.3 ([27],
	// d-ary cuckoo hashing): compute d candidate slots for key and
	// return the first whose stored signature matches, or all-ones.
	// Slot layout: (sig u32, value u32) pairs; flags = d<<32 | slotMask.
	matrixCmp := func(buf []byte, d int, mask uint32, key []byte) uint64 {
		sig := nhash.FastHash32(key, SigSeed) | 1
		for i := 0; i < d; i++ {
			h := nhash.FastHash32(key, nhash.Seed(i)) & mask
			if getU32(buf, int(h)*2) == sig {
				return uint64(h)
			}
		}
		return ^uint64(0)
	}
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfHashCmp, Name: "enetstl_hash_cmp",
		Meta: vm.KfuncMeta{NumArgs: 5, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar},
			{Kind: vm.ArgPtrToMem, SizeArg: 4}, {Kind: vm.ArgScalar},
			{Kind: vm.ArgScalar},
		}, Ret: vm.RetScalar},
		Impl: func(machine *vm.VM, a1, a2, a3, a4, a5 uint64) (uint64, error) {
			buf, err := machine.Bytes(a1, int(a2))
			if err != nil {
				return 0, err
			}
			key, err := machine.Bytes(a3, int(a4))
			if err != nil {
				return 0, err
			}
			d := int(a5 >> 32)
			mask := uint32(a5)
			if d <= 0 || (int(mask)+1)*8 > len(buf) {
				return 0, fmt.Errorf("hash_cmp: bad flags %#x for %d-byte table", a5, len(buf))
			}
			return matrixCmp(buf, d, mask, key), nil
		}})

	// Bloom-style fused ops: flags = d<<32 | bitMask (bits-1, pow2-1).
	bloomOp := func(id int32, name string,
		op func(bm []byte, d int, mask uint32, key []byte) uint64) {
		l.vm.RegisterKfunc(&vm.Kfunc{ID: id, Name: name,
			Meta: vm.KfuncMeta{NumArgs: 5, Args: [5]vm.ArgSpec{
				{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar},
				{Kind: vm.ArgPtrToMem, SizeArg: 4}, {Kind: vm.ArgScalar},
				{Kind: vm.ArgScalar},
			}, Ret: vm.RetScalar},
			Impl: func(machine *vm.VM, a1, a2, a3, a4, a5 uint64) (uint64, error) {
				bm, err := machine.Bytes(a1, int(a2))
				if err != nil {
					return 0, err
				}
				key, err := machine.Bytes(a3, int(a4))
				if err != nil {
					return 0, err
				}
				d := int(a5 >> 32)
				mask := uint32(a5)
				if d <= 0 || (uint64(mask)+1)/8 > uint64(len(bm)) {
					return 0, fmt.Errorf("%s: bad flags %#x for %d-byte bitmap", name, a5, len(bm))
				}
				return op(bm, d, mask, key), nil
			}})
	}
	// kf_hash_set: fused "setting bits after hashing" (Bloom insert).
	bloomOp(KfHashSet, "enetstl_hash_set", func(bm []byte, d int, mask uint32, key []byte) uint64 {
		for i := 0; i < d; i++ {
			h := nhash.FastHash32(key, nhash.Seed(i)) & mask
			bm[h>>3] |= 1 << (h & 7)
		}
		return 0
	})
	// kf_hash_test: fused Bloom membership test.
	bloomOp(KfHashTest, "enetstl_hash_test", func(bm []byte, d int, mask uint32, key []byte) uint64 {
		for i := 0; i < d; i++ {
			h := nhash.FastHash32(key, nhash.Seed(i)) & mask
			if bm[h>>3]&(1<<(h&7)) == 0 {
				return 0
			}
		}
		return 1
	})
}

func (l *Lib) registerSIMD() {
	memKey := vm.KfuncMeta{NumArgs: 3, Args: [5]vm.ArgSpec{
		{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar}, {Kind: vm.ArgScalar},
	}, Ret: vm.RetScalar}
	// kf_find_u32(arrPtr, arrBytes, key) -> index or all-ones.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfFindU32, Name: "enetstl_find_u32", Meta: memKey,
		Impl: func(machine *vm.VM, a1, a2, a3, _, _ uint64) (uint64, error) {
			b, err := machine.Bytes(a1, int(a2))
			if err != nil {
				return 0, err
			}
			return uint64(int64(simd.FindU32LE(b, uint32(a3)))), nil
		}})
	// kf_find_u16(arrPtr, arrBytes, key) -> index or all-ones.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfFindU16, Name: "enetstl_find_u16", Meta: memKey,
		Impl: func(machine *vm.VM, a1, a2, a3, _, _ uint64) (uint64, error) {
			b, err := machine.Bytes(a1, int(a2))
			if err != nil {
				return 0, err
			}
			return uint64(int64(simd.FindU16LE(b, uint16(a3)))), nil
		}})
	memOnly := vm.KfuncMeta{NumArgs: 2, Args: [5]vm.ArgSpec{
		{Kind: vm.ArgPtrToMem, SizeArg: 2}, {Kind: vm.ArgScalar},
	}, Ret: vm.RetScalar}
	// kf_min_u32 -> idx<<32 | value.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfMinU32, Name: "enetstl_min_u32", Meta: memOnly,
		Impl: func(machine *vm.VM, a1, a2, _, _, _ uint64) (uint64, error) {
			b, err := machine.Bytes(a1, int(a2))
			if err != nil {
				return 0, err
			}
			idx, val := simd.MinU32LE(b)
			return uint64(uint32(idx))<<32 | uint64(val), nil
		}})

	// Low-level wrappers (Fig. 6): fixed 32-byte vectors through memory.
	const vecBytes = simd.LaneWidth * 4
	// kf_vec_cmp_u32(destPtr, srcPtr, key): dest = lanewise (src==key).
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfVecCmpU32, Name: "enetstl_vec_cmp_u32",
		Meta: vm.KfuncMeta{NumArgs: 3, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgPtrToMem, Size: vecBytes},
			{Kind: vm.ArgPtrToMem, Size: vecBytes},
			{Kind: vm.ArgScalar},
		}, Ret: vm.RetVoid},
		Impl: func(machine *vm.VM, a1, a2, a3, _, _ uint64) (uint64, error) {
			dst, err := machine.Bytes(a1, vecBytes)
			if err != nil {
				return 0, err
			}
			src, err := machine.Bytes(a2, vecBytes)
			if err != nil {
				return 0, err
			}
			v := simd.VecLoad(u32Slice(src))  // costly load
			m := simd.VecCmpEq(v, uint32(a3)) // the instruction
			putU32Slice(dst, m[:])            // costly store
			return 0, nil
		}})
	// kf_vec_movemask(srcPtr) -> lane mask bits.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfVecMoveMask, Name: "enetstl_vec_movemask",
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgPtrToMem, Size: vecBytes},
		}, Ret: vm.RetScalar},
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			src, err := machine.Bytes(a1, vecBytes)
			if err != nil {
				return 0, err
			}
			v := simd.VecLoad(u32Slice(src))
			return uint64(simd.VecMoveMask(v)), nil
		}})
}

func (l *Lib) registerRpool() {
	handleOnly := vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{{Kind: vm.ArgHandle}}, Ret: vm.RetScalar}
	// kf_rpool_next(handle) -> u32.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfRpoolNext, Name: "enetstl_rpool_next", Meta: handleOnly,
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			o, err := machine.Object(a1)
			if err != nil {
				return 0, err
			}
			p, ok := o.(*rpool.Pool)
			if !ok {
				return 0, vm.ErrBadHandle
			}
			return uint64(p.Next()), nil
		}})

	// kf_geo_next(handle) -> geometric skip count.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfGeoNext, Name: "enetstl_geo_next", Meta: handleOnly,
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			o, err := machine.Object(a1)
			if err != nil {
				return 0, err
			}
			g, ok := o.(*rpool.GeoPool)
			if !ok {
				return 0, vm.ErrBadHandle
			}
			return uint64(g.Next()), nil
		}})
}

func (l *Lib) buckets(machine *vm.VM, h uint64) (*listbuckets.ListBuckets, error) {
	o, err := machine.Object(h)
	if err != nil {
		return nil, err
	}
	lb, ok := o.(*listbuckets.ListBuckets)
	if !ok {
		return nil, vm.ErrBadHandle
	}
	return lb, nil
}

func (l *Lib) registerBuckets() {

	// kf_bktlist_push_back(handle, idx, dataPtr, dataLen) -> 0 or -1.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfBktPushBack, Name: "enetstl_bktlist_push_back",
		Meta: vm.KfuncMeta{NumArgs: 4, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgHandle}, {Kind: vm.ArgScalar},
			{Kind: vm.ArgPtrToMem, SizeArg: 4}, {Kind: vm.ArgScalar},
		}, Ret: vm.RetScalar,
			// Error-injectable: a failed insert returns the same -1
			// the bad-argument path already produces; the element is
			// shed, the structure stays consistent.
			ErrInject: true},
		Impl: func(machine *vm.VM, a1, a2, a3, a4, _ uint64) (uint64, error) {
			lb, err := l.buckets(machine, a1)
			if err != nil {
				return 0, err
			}
			if int(a2) >= lb.NumBuckets() || int(a4) != lb.ElemSize() {
				return ^uint64(0), nil
			}
			data, err := machine.Bytes(a3, int(a4))
			if err != nil {
				return 0, err
			}
			lb.PushBack(int(a2), data)
			return 0, nil
		}})

	// kf_bktlist_pop_front(handle, idx, outPtr, outLen) -> 1 or 0.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfBktPopFront, Name: "enetstl_bktlist_pop_front",
		Meta: vm.KfuncMeta{NumArgs: 4, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgHandle}, {Kind: vm.ArgScalar},
			{Kind: vm.ArgPtrToMem, SizeArg: 4}, {Kind: vm.ArgScalar},
		}, Ret: vm.RetScalar},
		Impl: func(machine *vm.VM, a1, a2, a3, a4, _ uint64) (uint64, error) {
			lb, err := l.buckets(machine, a1)
			if err != nil {
				return 0, err
			}
			if int(a2) >= lb.NumBuckets() || int(a4) < lb.ElemSize() {
				return 0, nil
			}
			out, err := machine.Bytes(a3, int(a4))
			if err != nil {
				return 0, err
			}
			if lb.PopFront(int(a2), out) {
				return 1, nil
			}
			return 0, nil
		}})
}
