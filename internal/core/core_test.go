package core_test

import (
	"testing"

	"enetstl/internal/core"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/memwrapper"
	"enetstl/internal/nhash"
)

// runKfuncProg verifies and runs a small program, returning R0.
func runKfuncProg(t *testing.T, machine *vm.VM, b *asm.Builder, ctx []byte, opts verifier.Options) uint64 {
	t.Helper()
	prog, err := verifier.LoadAndVerify(machine, t.Name(), b.MustProgram(), opts)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := machine.Run(prog, ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

func TestBitKfuncs(t *testing.T) {
	machine := vm.New()
	core.Attach(machine, core.Config{})
	b := asm.New()
	b.LoadImm64(asm.R1, 0x8000000000000100)
	b.Kfunc(core.KfFFS64) // -> 9
	b.Exit()
	if got := runKfuncProg(t, machine, b, nil, verifier.Options{}); got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestHashKfuncMatchesNative(t *testing.T) {
	machine := vm.New()
	core.Attach(machine, core.Config{})
	b := asm.New()
	b.Mov(asm.R6, asm.R1)
	b.Mov(asm.R1, asm.R6)
	b.MovImm(asm.R2, 16)
	b.MovImm(asm.R3, 42)
	b.Kfunc(core.KfHashFast64)
	b.Exit()
	pkt := make([]byte, 64)
	copy(pkt, "hash-me-16-bytes")
	got := runKfuncProg(t, machine, b, pkt, verifier.Options{CtxSize: 64})
	want := nhash.FastHash64(pkt[:16], 42)
	if got != want {
		t.Fatalf("kfunc hash %#x, native %#x", got, want)
	}
}

func TestFindKfunc(t *testing.T) {
	machine := vm.New()
	core.Attach(machine, core.Config{})
	arr := maps.Must(maps.NewArray(32, 1)) // 8 u32 lanes
	fd := machine.RegisterMap(arr)
	// lane 5 = 0xDEAD
	d := arr.Data()
	d[20], d[21] = 0xAD, 0xDE

	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "ok")
	b.MovImm(asm.R0, 99).Exit()
	b.Label("ok")
	b.Mov(asm.R1, asm.R0)
	b.MovImm(asm.R2, 32)
	b.MovImm(asm.R3, 0xDEAD)
	b.Kfunc(core.KfFindU32)
	b.Exit()
	if got := runKfuncProg(t, machine, b, nil, verifier.Options{}); got != 5 {
		t.Fatalf("find = %d, want 5", got)
	}
}

func TestBucketListKfuncLifecycle(t *testing.T) {
	// The control plane installs a list-buckets instance and stores its
	// handle in a map (timewheel's wiring); the program loads the handle,
	// pushes an element into a bucket and pops it back.
	machine := vm.New()
	lib := core.Attach(machine, core.Config{})
	h := core.MustHandle(lib.NewBucketsHandle(4, 8, 16))
	state := maps.Must(maps.NewArray(8, 1))
	fd := machine.RegisterMap(state)
	d := state.Data()
	for i := 0; i < 8; i++ {
		d[i] = byte(h >> (8 * i))
	}

	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "have_slot")
	b.MovImm(asm.R0, 1).Exit()
	b.Label("have_slot")
	b.Load(asm.R8, asm.R0, 0, 8)
	b.JmpImm(asm.JNE, asm.R8, 0, "use")
	b.MovImm(asm.R0, 2).Exit()
	b.Label("use")
	b.StoreImm(asm.R10, -16, 0x55, 8)
	b.Mov(asm.R1, asm.R8)
	b.MovImm(asm.R2, 2) // bucket 2
	b.Mov(asm.R3, asm.R10).AddImm(asm.R3, -16)
	b.MovImm(asm.R4, 8)
	b.Kfunc(core.KfBktPushBack) // -> 0
	b.Mov(asm.R9, asm.R0)
	b.StoreImm(asm.R10, -16, 0, 8)
	// pop it back
	b.Mov(asm.R1, asm.R8)
	b.MovImm(asm.R2, 2)
	b.Mov(asm.R3, asm.R10).AddImm(asm.R3, -16)
	b.MovImm(asm.R4, 8)
	b.Kfunc(core.KfBktPopFront) // -> 1
	b.Add(asm.R0, asm.R9)
	b.Load(asm.R1, asm.R10, -16, 8)
	b.Add(asm.R0, asm.R1) // 1 (popped) + 0x55 (the element) = 0x56
	b.Exit()

	if got := runKfuncProg(t, machine, b, make([]byte, 64), verifier.Options{CtxSize: 64}); got != 0x56 {
		t.Fatalf("got %#x, want 0x56", got)
	}
	lb, err := lib.Buckets(h)
	if err != nil {
		t.Fatal(err)
	}
	if lb.PopFront(2, make([]byte, 8)) {
		t.Fatal("the popped element is still queued")
	}
}

func TestMemWrapperKfuncsListing3(t *testing.T) {
	// Listing 3's list_add through the kfunc surface.
	machine := vm.New()
	lib := core.Attach(machine, core.Config{NodeDataSize: 32})
	proxy := memwrapper.Must(memwrapper.NewProxy(32, 2))
	freed := 0
	proxy.OnFree = func(*memwrapper.Node) { freed++ }
	ph := lib.NewProxyHandle(proxy)
	root, err := proxy.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetOwner(root)
	proxy.Release(root)
	lib.SetRoot(ph, root)
	state := maps.Must(maps.NewArray(8, 1))
	fd := machine.RegisterMap(state)
	d := state.Data()
	for i := 0; i < 8; i++ {
		d[i] = byte(ph >> (8 * i))
	}

	b := asm.New()
	b.Mov(asm.R6, asm.R1)
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "s")
	b.MovImm(asm.R0, 1).Exit()
	b.Label("s")
	b.Load(asm.R7, asm.R0, 0, 8)
	b.JmpImm(asm.JNE, asm.R7, 0, "h")
	b.MovImm(asm.R0, 2).Exit()
	b.Label("h")
	// head = proxy_root(ph)
	b.Mov(asm.R1, asm.R7)
	b.Kfunc(core.KfProxyRoot)
	b.JmpImm(asm.JNE, asm.R0, 0, "r")
	b.MovImm(asm.R0, 3).Exit()
	b.Label("r")
	b.Mov(asm.R8, asm.R0)
	// new = node_alloc(ph, 2); set_owner; write a byte; connect head->new
	b.Mov(asm.R1, asm.R7)
	b.MovImm(asm.R2, 2)
	b.Kfunc(core.KfNodeAlloc)
	b.JmpImm(asm.JNE, asm.R0, 0, "a")
	b.Mov(asm.R1, asm.R8)
	b.Kfunc(core.KfNodeRelease)
	b.MovImm(asm.R0, 4).Exit()
	b.Label("a")
	b.Mov(asm.R9, asm.R0)
	b.Mov(asm.R1, asm.R9)
	b.Kfunc(core.KfNodeSetOwner)
	b.StoreImm(asm.R9, 0, 0xCD, 1)
	b.Mov(asm.R1, asm.R8)
	b.MovImm(asm.R2, 0)
	b.Mov(asm.R3, asm.R9)
	b.Kfunc(core.KfNodeConnect)
	// walk: next = node_next(head, 0); read its byte
	b.Mov(asm.R1, asm.R8)
	b.MovImm(asm.R2, 0)
	b.Kfunc(core.KfNodeNext)
	b.JmpImm(asm.JNE, asm.R0, 0, "n")
	b.Mov(asm.R1, asm.R8)
	b.Kfunc(core.KfNodeRelease)
	b.Mov(asm.R1, asm.R9)
	b.Kfunc(core.KfNodeRelease)
	b.MovImm(asm.R0, 5).Exit()
	b.Label("n")
	b.Mov(asm.R7, asm.R0) // next (the new node)
	b.Load(asm.R6, asm.R7, 0, 1)
	// release everything
	b.Mov(asm.R1, asm.R7)
	b.Kfunc(core.KfNodeRelease)
	b.Mov(asm.R1, asm.R9)
	b.Kfunc(core.KfNodeRelease)
	b.Mov(asm.R1, asm.R8)
	b.Kfunc(core.KfNodeRelease)
	b.Mov(asm.R0, asm.R6)
	b.Exit()

	got := runKfuncProg(t, machine, b, make([]byte, 64),
		verifier.Options{CtxSize: 64, StateBudget: 1 << 20})
	if got != 0xCD {
		t.Fatalf("walked value = %#x, want 0xCD", got)
	}
	// Two allocations (root + new) and no free: both nodes are live.
	if freed != 0 {
		t.Fatalf("%d nodes freed, want 0 (root + new stay live)", freed)
	}
	if err := proxy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleTypeMismatchFailsAtRuntime(t *testing.T) {
	// A list-buckets handle passed to a pool kfunc must error.
	machine := vm.New()
	lib := core.Attach(machine, core.Config{})
	h := core.MustHandle(lib.NewBucketsHandle(4, 8, 8))
	state := maps.Must(maps.NewArray(8, 1))
	fd := machine.RegisterMap(state)
	d := state.Data()
	for i := 0; i < 8; i++ {
		d[i] = byte(h >> (8 * i))
	}
	b := asm.New()
	b.StoreImm(asm.R10, -4, 0, 4)
	b.LoadMap(asm.R1, fd)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
	b.Call(vm.HelperMapLookup)
	b.JmpImm(asm.JNE, asm.R0, 0, "s")
	b.MovImm(asm.R0, 1).Exit()
	b.Label("s")
	b.Load(asm.R1, asm.R0, 0, 8)
	b.JmpImm(asm.JNE, asm.R1, 0, "u")
	b.MovImm(asm.R0, 2).Exit()
	b.Label("u")
	b.Kfunc(core.KfRpoolNext) // wrong object type
	b.Exit()
	prog, err := verifier.LoadAndVerify(machine, "mismatch", b.MustProgram(), verifier.Options{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := machine.Run(prog, nil); err == nil {
		t.Fatal("type-confused handle accepted at runtime")
	}
}
