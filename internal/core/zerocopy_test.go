package core_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"enetstl/internal/core"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/memwrapper"
	"enetstl/internal/rpool"
)

// The call-boundary contract (DESIGN.md, "core"): a kfunc never copies
// program memory. It works on the slice vm.Bytes returned; kf_vec_* are
// the deliberate exception, because their load/store round trips are the
// Fig. 6 ablation.

// kfuncEnv is one VM with the library attached and a scratch region the
// tests hand to kfuncs by pointer.
type kfuncEnv struct {
	t   *testing.T
	m   *vm.VM
	lib *core.Lib
}

func newKfuncEnv(t *testing.T) *kfuncEnv {
	m := vm.New()
	return &kfuncEnv{t: t, m: m, lib: core.Attach(m, core.Config{})}
}

// mem adopts b as program memory and returns its pointer.
func (e *kfuncEnv) mem(b []byte) uint64 { return e.m.AdoptMem(b) }

// call invokes the kfunc body exactly as the interpreter's direct
// dispatch does.
func (e *kfuncEnv) call(id int32, a ...uint64) uint64 {
	var r [5]uint64
	copy(r[:], a)
	v, err := e.m.KfuncByID(id).Impl(e.m, r[0], r[1], r[2], r[3], r[4])
	if err != nil {
		e.t.Fatalf("%s: %v", e.m.KfuncByID(id).Name, err)
	}
	return v
}

func u32Image(vs ...uint32) []byte {
	b := make([]byte, 0, len(vs)*4)
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestKfuncTrailingBytes pins what every scanning kfunc answers for a
// buffer whose length is not a whole number of lanes: bytes past the
// last whole lane are ignored, exactly as len(b)/4 ignored them when the
// kfuncs converted the buffer first. The want values were recorded from
// the parent commit (3b3bf73) with this same table.
func TestKfuncTrailingBytes(t *testing.T) {
	e := newKfuncEnv(t)
	const none = ^uint64(0)

	// 9 whole u32 lanes + 3 trailing bytes; 0xAABBCCDD would complete in
	// the trailing bytes if a fourth byte existed.
	scan := append(u32Image(7, 9, 0xDEAD, 4, 3, 0xDEAD, 1, 8, 2), 0xDD, 0xCC, 0xBB)
	// 17 whole u16 lanes + 1 trailing byte.
	fp := make([]byte, 0, 35)
	for _, v := range []uint16{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0xBEEF} {
		fp = binary.LittleEndian.AppendUint16(fp, v)
	}
	fp = append(fp, 0x21)

	scanPtr, fpPtr := e.mem(scan), e.mem(fp)
	for _, c := range []struct {
		name string
		id   int32
		args []uint64
		want uint64
	}{
		{"find_u32 hit in first vector", core.KfFindU32, []uint64{scanPtr, uint64(len(scan)), 0xDEAD}, 2},
		{"find_u32 hit in scalar tail", core.KfFindU32, []uint64{scanPtr, uint64(len(scan)), 2}, 8},
		{"find_u32 key only in trailing bytes", core.KfFindU32, []uint64{scanPtr, uint64(len(scan)), 0x00BBCCDD}, none},
		{"find_u32 3-byte buffer", core.KfFindU32, []uint64{scanPtr, 3, 7}, none},
		{"find_u32 lanes cut to 7 bytes", core.KfFindU32, []uint64{scanPtr, 7, 9}, none},
		{"find_u32 odd start", core.KfFindU32, []uint64{scanPtr + 4, uint64(len(scan) - 4), 0xDEAD}, 1},
		{"find_u16 hit in first vector", core.KfFindU16, []uint64{fpPtr, uint64(len(fp)), 20}, 15},
		{"find_u16 hit in scalar tail", core.KfFindU16, []uint64{fpPtr, uint64(len(fp)), 0xBEEF}, 16},
		{"find_u16 key only in trailing byte", core.KfFindU16, []uint64{fpPtr, uint64(len(fp)), 0x21}, none},
		{"find_u16 1-byte buffer", core.KfFindU16, []uint64{fpPtr, 1, 5}, none},
		{"min_u32", core.KfMinU32, []uint64{scanPtr, uint64(len(scan))}, 6<<32 | 1},
		{"min_u32 first of ties", core.KfMinU32, []uint64{scanPtr + 8, 4*4 + 2}, 2<<32 | 3},
		{"min_u32 empty", core.KfMinU32, []uint64{scanPtr, 3}, 0xffffffff << 32},
	} {
		if got := e.call(c.id, c.args...); got != c.want {
			t.Errorf("%s: got %#x, want %#x", c.name, got, c.want)
		}
	}

	// hash_n writes whole lanes only; the out buffer's trailing bytes keep
	// their contents.
	key := []byte("0123456789abcdef")
	out := bytes.Repeat([]byte{0xEE}, 4*3+2)
	e.call(core.KfHashN, e.mem(key), uint64(len(key)), e.mem(out), uint64(len(out)))
	wantOut := append(u32Image(0xf056f0a5, 0xf1a748a7, 0xbbabaa65), 0xEE, 0xEE)
	if !bytes.Equal(out, wantOut) {
		t.Errorf("hash_n out = %x, want %x", out, wantOut)
	}
}

// TestDataPathKfuncsDoNotAllocate is the zero-copy pin: every kfunc a
// per-packet program calls runs without a heap allocation. The
// exceptions are listed with the reason each is one.
func TestDataPathKfuncsDoNotAllocate(t *testing.T) {
	e := newKfuncEnv(t)
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	key := []byte("0123456789abcdef")
	bufPtr, keyPtr := e.mem(buf), e.mem(key)
	elem := make([]byte, 8)
	elemPtr := e.mem(elem)

	pool := core.MustHandle(e.lib.NewPoolHandle(64, 1))
	geo := e.m.AllocHandle(rpool.Must(rpool.NewGeoPool(64, 0.25, 1)))
	bkt := core.MustHandle(e.lib.NewBucketsHandle(4, 8, 16))

	proxy := memwrapper.Must(memwrapper.NewProxy(64, 2))
	ph := e.lib.NewProxyHandle(proxy)
	a := e.call(core.KfNodeAlloc, ph, 2)
	b := e.call(core.KfNodeAlloc, ph, 2)
	if a == 0 || b == 0 {
		t.Fatal("node_alloc returned NULL")
	}
	e.call(core.KfNodeSetOwner, a)
	rootNode, err := proxy.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	e.lib.SetRoot(ph, rootNode)

	const rows4 = uint64(4) << 32
	calls := map[int32]func(){
		core.KfFFS64:      func() { e.call(core.KfFFS64, 0x100) },
		core.KfHashFast64: func() { e.call(core.KfHashFast64, keyPtr, 16, 7) },
		core.KfHashN:      func() { e.call(core.KfHashN, keyPtr, 16, bufPtr, 32) },
		core.KfHashCnt:    func() { e.call(core.KfHashCnt, bufPtr, 256, keyPtr, 16, rows4|15) },
		core.KfHashSet:    func() { e.call(core.KfHashSet, bufPtr, 256, keyPtr, 16, rows4|2047) },
		core.KfHashTest:   func() { e.call(core.KfHashTest, bufPtr, 256, keyPtr, 16, rows4|2047) },
		core.KfHashCmp:    func() { e.call(core.KfHashCmp, bufPtr, 256, keyPtr, 16, rows4|31) },
		core.KfFindU32:    func() { e.call(core.KfFindU32, bufPtr, 256, 0xDEAD) },
		core.KfFindU16:    func() { e.call(core.KfFindU16, bufPtr, 256, 0xDEAD) },
		core.KfMinU32:     func() { e.call(core.KfMinU32, bufPtr, 256) },
		core.KfRpoolNext:  func() { e.call(core.KfRpoolNext, pool) },
		core.KfGeoNext:    func() { e.call(core.KfGeoNext, geo) },
		// Steady state of a queue: every insert is matched by a pop.
		core.KfBktPushBack: func() {
			e.call(core.KfBktPushBack, bkt, 2, elemPtr, 8)
			e.call(core.KfBktPopFront, bkt, 2, elemPtr, 8)
		},
		core.KfBktPopFront: func() { e.call(core.KfBktPopFront, bkt, 3, elemPtr, 8) },
		core.KfNodeSetOwner: func() {
			e.call(core.KfNodeSetOwner, b)
			e.call(core.KfNodeUnsetOwner, b)
		},
		core.KfNodeUnsetOwner: nil, // exercised with set_owner above
		core.KfNodeConnect: func() {
			e.call(core.KfNodeConnect, a, 0, b)
			if n := e.call(core.KfNodeNext, a, 0); n != b {
				t.Fatalf("node_next = %#x, want %#x", n, b)
			}
			e.call(core.KfNodeRelease, b)
			e.call(core.KfNodeDisconnect, a, 0)
		},
		core.KfNodeDisconnect: nil, // exercised with connect above
		core.KfNodeNext:       nil,
		core.KfNodeRelease:    nil,
		core.KfProxyRoot: func() {
			e.call(core.KfNodeRelease, e.call(core.KfProxyRoot, ph))
		},

		// Not data-path calls, or copies by design.
		core.KfVecCmpU32:   nil, // Fig. 6: the load/store round trip is the measurement
		core.KfVecMoveMask: nil, // Fig. 6
		core.KfNodeAlloc:   nil, // allocator
	}
	for id := int32(2001); id < 2600; id++ {
		k := e.m.KfuncByID(id)
		if k == nil {
			continue
		}
		f, listed := calls[id]
		if !listed {
			t.Errorf("%s (id %d) is neither pinned allocation-free nor listed as an exception", k.Name, id)
			continue
		}
		if f == nil {
			continue
		}
		f() // first call may expose a node or grow a table
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", k.Name, n)
		}
	}
}
