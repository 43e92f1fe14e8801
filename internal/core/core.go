// Package core assembles the eNetSTL library: it binds the component
// packages (bitops, nhash, simd, rpool, listbuckets, memwrapper) to a
// simulated eBPF VM by registering them as kfuncs with verifier
// metadata — the Go analogue of loading the eNetSTL kernel module.
//
// Native Go code (the paper's "Kernel" baselines, and control planes)
// uses the component packages directly; eBPF programs reach the same
// implementations through the kfunc IDs defined here.
package core

import (
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/listbuckets"
	"enetstl/internal/memwrapper"
	"enetstl/internal/rpool"
)

// Kfunc IDs exposed by the library, grouped as in Table 2.
const (
	// Bit manipulation algorithms.
	KfFFS64 int32 = 2001

	// Hashing and unified post-hashing operations.
	KfHashFast64 int32 = 2102
	KfHashN      int32 = 2103 // low-level: copies all hashes out (Fig. 6)
	KfHashCnt    int32 = 2104
	KfHashSet    int32 = 2106
	KfHashTest   int32 = 2107
	KfHashCmp    int32 = 2108

	// Parallel comparing and reducing.
	KfFindU32 int32 = 2201
	KfFindU16 int32 = 2202
	KfMinU32  int32 = 2203
	// Low-level per-instruction SIMD wrappers (Fig. 6 ablation).
	KfVecCmpU32   int32 = 2251
	KfVecMoveMask int32 = 2252

	// Random pools.
	KfRpoolNext int32 = 2301
	KfGeoNext   int32 = 2303

	// List-buckets.
	KfBktPushBack int32 = 2404
	KfBktPopFront int32 = 2405

	// Memory wrapper.
	KfNodeAlloc      int32 = 2501
	KfNodeSetOwner   int32 = 2502
	KfNodeUnsetOwner int32 = 2503
	KfNodeConnect    int32 = 2504
	KfNodeDisconnect int32 = 2505
	KfNodeNext       int32 = 2506
	KfNodeRelease    int32 = 2507
	KfProxyRoot      int32 = 2508
)

// SigSeed is the signature-hash seed shared by kf_hash_cmp and its
// native users, so control planes and datapaths agree.
const SigSeed = 997

// Config tunes library registration for one VM.
type Config struct {
	// NodeDataSize is the payload size of memory-wrapper nodes exposed
	// to programs on this VM (the static BTF-like size bound the
	// verifier uses for node pointers). Defaults to 64.
	NodeDataSize int
	// MaxBktElem is the largest element the list-bucket kfuncs accept.
	// Defaults to 256.
	MaxBktElem int
	// AllocFault, when it returns true, makes the node_alloc kfunc fail
	// (NULL to programs) — the library's ALLOW_ERROR_INJECTION surface,
	// wired to the fault plane by the chaos harness.
	AllocFault func() bool
}

// Lib is the library instance attached to one VM.
type Lib struct {
	vm  *vm.VM
	cfg Config

	nodeByPtr map[uint64]*memwrapper.Node
	roots     map[uint64]*memwrapper.Node // proxy handle -> root node
}

// Attach registers every eNetSTL kfunc on machine and returns the
// library binding.
func Attach(machine *vm.VM, cfg Config) *Lib {
	if cfg.NodeDataSize == 0 {
		cfg.NodeDataSize = 64
	}
	if cfg.MaxBktElem == 0 {
		cfg.MaxBktElem = 256
	}
	l := &Lib{
		vm:        machine,
		cfg:       cfg,
		nodeByPtr: make(map[uint64]*memwrapper.Node),
		roots:     make(map[uint64]*memwrapper.Node),
	}
	l.registerBitops()
	l.registerHash()
	l.registerSIMD()
	l.registerRpool()
	l.registerBuckets()
	l.registerMemWrapper()
	return l
}

// --- Native-side object management (the control-plane path) ---

// NewPoolHandle installs a uniform random pool and returns its handle
// for storage in a BPF map.
func (l *Lib) NewPoolHandle(size int, seed uint64) (uint64, error) {
	p, err := rpool.NewPool(size, seed)
	if err != nil {
		return 0, err
	}
	return l.vm.AllocHandle(p), nil
}

// NewBucketsHandle installs a list-buckets instance.
func (l *Lib) NewBucketsHandle(nBuckets, elemSize, capacity int) (uint64, error) {
	lb, err := listbuckets.New(nBuckets, elemSize, capacity)
	if err != nil {
		return 0, err
	}
	return l.vm.AllocHandle(lb), nil
}

// MustHandle unwraps a handle-constructor result, panicking on error;
// for call sites with static, pre-validated sizes.
func MustHandle(h uint64, err error) uint64 {
	if err != nil {
		panic(err)
	}
	return h
}

// Buckets resolves a list-buckets handle (for control-plane draining).
func (l *Lib) Buckets(h uint64) (*listbuckets.ListBuckets, error) {
	o, err := l.vm.Object(h)
	if err != nil {
		return nil, err
	}
	return o.(*listbuckets.ListBuckets), nil
}

// NewProxyHandle installs a memory-wrapper proxy whose node payload size
// must match Config.NodeDataSize. Freed nodes retire their VM regions.
func (l *Lib) NewProxyHandle(p *memwrapper.Proxy) uint64 {
	prev := p.OnFree
	p.OnFree = func(n *memwrapper.Node) {
		if n.VMPtr != 0 {
			delete(l.nodeByPtr, n.VMPtr)
			_ = l.vm.FreeMem(n.VMPtr)
			n.VMPtr = 0
		}
		if prev != nil {
			prev(n)
		}
	}
	return l.vm.AllocHandle(p)
}

// SetRoot designates the node returned by the kf_proxy_root kfunc for
// the given proxy handle (the skip-list head, for example).
func (l *Lib) SetRoot(proxyHandle uint64, n *memwrapper.Node) {
	l.roots[proxyHandle] = n
}

// ExposeNode ensures n has a VM region pointer and returns it.
func (l *Lib) ExposeNode(n *memwrapper.Node) uint64 {
	if n.VMPtr == 0 {
		n.VMPtr = l.vm.AdoptMem(n.Data())
		l.nodeByPtr[n.VMPtr] = n
	}
	return n.VMPtr
}

func (l *Lib) proxy(h uint64) (*memwrapper.Proxy, error) {
	o, err := l.vm.Object(h)
	if err != nil {
		return nil, err
	}
	p, ok := o.(*memwrapper.Proxy)
	if !ok {
		return nil, vm.ErrBadHandle
	}
	return p, nil
}

func (l *Lib) node(ptr uint64) (*memwrapper.Node, error) {
	n, ok := l.nodeByPtr[ptr]
	if !ok {
		return nil, vm.ErrBadPointer
	}
	return n, nil
}
