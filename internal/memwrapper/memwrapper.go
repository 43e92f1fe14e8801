// Package memwrapper implements eNetSTL's memory wrapper (paper §4.2):
// proxy-based ownership management for dynamically allocated,
// non-contiguous memory, with lazy safety checking.
//
// A Proxy centrally owns nodes (the paper stores the proxy in a BPF map,
// making every node it manages persistent). Nodes are linked through
// numbered out-slots (Connect/Disconnect/Next). Instead of validating
// every traversal, the wrapper records reverse edges and, when a node is
// freed, nils out every out-slot that pointed at it — so a slot is
// always either nil or a valid node, and Next needs no check (lazy
// safety checking). The eager alternative, kept for the ablation bench,
// validates each traversal against a live-edge set.
package memwrapper

import (
	"errors"
	"fmt"
)

// Errors returned by wrapper operations.
var (
	ErrFreed       = errors.New("memwrapper: operation on freed node")
	ErrBadSlot     = errors.New("memwrapper: out-slot index out of range")
	ErrWrongProxy  = errors.New("memwrapper: node belongs to a different proxy")
	ErrStaleEdge   = errors.New("memwrapper: traversal of invalidated edge (eager check)")
	ErrNotOwned    = errors.New("memwrapper: node is not owned by the proxy")
	ErrAllocFailed = errors.New("memwrapper: node allocation failed")
	ErrConfig      = errors.New("memwrapper: sizes must be positive")
)

type inEdge struct {
	pred *Node
	slot int
}

// Node is one dynamically allocated memory block managed by a Proxy.
type Node struct {
	proxy *Proxy
	data  []byte
	outs  []*Node
	ins   []inEdge

	ref   int32
	owned bool
	freed bool

	// VMPtr caches the node's region pointer when the node is exposed to
	// a simulated eBPF VM; unused in native-only operation.
	VMPtr uint64
}

// Data returns the node's payload. The slice aliases node storage.
func (n *Node) Data() []byte { return n.data }

// Proxy returns the proxy managing this node.
func (n *Node) Proxy() *Proxy { return n.proxy }

// Freed reports whether the node's memory has been released.
func (n *Node) Freed() bool { return n.freed }

// Proxy centrally owns dynamically allocated nodes, standing in for the
// proxy structure the paper persists in a BPF map.
type Proxy struct {
	dataSize int
	maxOuts  int

	// Eager switches GetNext to eager per-traversal validation (the
	// strawman of §4.2, benchmarked in the lazy-vs-eager ablation).
	Eager bool

	liveEdges map[edgeKey]struct{}

	// OnFree, when set, is invoked as a node's memory is released (the
	// core facade uses it to retire the node's VM region).
	OnFree func(*Node)

	// FailAlloc, when it returns true, makes Alloc fail with
	// ErrAllocFailed — the fault plane's hook into the kernel's
	// allocation-failure surface (bpf_obj_new returning NULL).
	FailAlloc func() bool

	liveNodes int
	allocs    int
	frees     int
}

type edgeKey struct {
	pred *Node
	slot int
}

// NewProxy creates a proxy managing nodes with dataSize-byte payloads
// and at most maxOuts out-slots each.
func NewProxy(dataSize, maxOuts int) (*Proxy, error) {
	if dataSize <= 0 || maxOuts <= 0 {
		return nil, fmt.Errorf("%w: %d-byte payload, %d out-slots", ErrConfig, dataSize, maxOuts)
	}
	return &Proxy{
		dataSize:  dataSize,
		maxOuts:   maxOuts,
		liveEdges: make(map[edgeKey]struct{}),
	}, nil
}

// Must unwraps a NewProxy result, panicking on error; for call sites
// with static, pre-validated sizes.
func Must(p *Proxy, err error) *Proxy {
	if err != nil {
		panic(err)
	}
	return p
}

// DataSize returns the payload size of nodes from this proxy.
func (p *Proxy) DataSize() int { return p.dataSize }

// Alloc creates a node with nOuts out-slots (at most maxOuts) and an
// initial reference held by the caller (the node_alloc of Listing 3).
func (p *Proxy) Alloc(nOuts int) (*Node, error) {
	if nOuts < 0 || nOuts > p.maxOuts {
		return nil, fmt.Errorf("%w: %d (max %d)", ErrBadSlot, nOuts, p.maxOuts)
	}
	if p.FailAlloc != nil && p.FailAlloc() {
		return nil, ErrAllocFailed
	}
	n := &Node{
		proxy: p,
		data:  make([]byte, p.dataSize),
		outs:  make([]*Node, nOuts),
		ref:   1,
	}
	p.liveNodes++
	p.allocs++
	return n, nil
}

// SetOwner transfers ownership of n to the proxy: the node stays alive
// with zero outstanding references until UnsetOwner (the set_owner of
// Listing 3, which lets node_release drop the caller's reference
// without freeing).
func (p *Proxy) SetOwner(n *Node) error {
	if err := p.checkNode(n); err != nil {
		return err
	}
	n.owned = true
	return nil
}

// UnsetOwner detaches n from proxy ownership. If no references remain
// the node is freed immediately.
func (p *Proxy) UnsetOwner(n *Node) error {
	if err := p.checkNode(n); err != nil {
		return err
	}
	if !n.owned {
		return ErrNotOwned
	}
	n.owned = false
	p.maybeFree(n)
	return nil
}

// Connect sets pred.outs[slot] = succ, replacing any previous edge (the
// node_connect of Listing 3). The reverse edge is recorded so that
// freeing succ later lazily invalidates the slot.
func (p *Proxy) Connect(pred *Node, slot int, succ *Node) error {
	if err := p.checkNode(pred); err != nil {
		return err
	}
	if err := p.checkNode(succ); err != nil {
		return err
	}
	if slot < 0 || slot >= len(pred.outs) {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	if old := pred.outs[slot]; old != nil {
		p.removeEdge(pred, slot, old)
	}
	pred.outs[slot] = succ
	succ.ins = append(succ.ins, inEdge{pred: pred, slot: slot})
	p.liveEdges[edgeKey{pred, slot}] = struct{}{}
	return nil
}

// Disconnect clears pred.outs[slot] (the node_disconnect of §4.2).
func (p *Proxy) Disconnect(pred *Node, slot int) error {
	if err := p.checkNode(pred); err != nil {
		return err
	}
	if slot < 0 || slot >= len(pred.outs) {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	if succ := pred.outs[slot]; succ != nil {
		p.removeEdge(pred, slot, succ)
		pred.outs[slot] = nil
	}
	return nil
}

// Next follows pred.outs[slot], taking a reference on the successor
// (get_next: zero safety checks in lazy mode — the invariant that the
// slot is nil or valid is maintained at free time). Returns nil when the
// slot is empty. The caller must Release the returned node.
func (p *Proxy) Next(pred *Node, slot int) (*Node, error) {
	if pred.freed {
		return nil, ErrFreed
	}
	if slot < 0 || slot >= len(pred.outs) {
		return nil, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	succ := pred.outs[slot]
	if succ == nil {
		return nil, nil
	}
	if p.Eager {
		// The strawman: validate the relationship on every traversal.
		if _, ok := p.liveEdges[edgeKey{pred, slot}]; !ok {
			return nil, ErrStaleEdge
		}
	}
	succ.ref++
	return succ, nil
}

// Acquire takes an additional reference on n (used when handing an
// existing node, such as a designated root, to a new holder).
func (p *Proxy) Acquire(n *Node) error {
	if err := p.checkNode(n); err != nil {
		return err
	}
	n.ref++
	return nil
}

// Release drops one reference (node_release). When the last reference
// is gone and the proxy does not own the node, its memory is freed and
// — the lazy safety step — every out-slot pointing at it is cleared.
func (p *Proxy) Release(n *Node) error {
	if err := p.checkNode(n); err != nil {
		return err
	}
	if n.ref > 0 {
		n.ref--
	}
	p.maybeFree(n)
	return nil
}

func (p *Proxy) checkNode(n *Node) error {
	if n == nil || n.freed {
		return ErrFreed
	}
	if n.proxy != p {
		return ErrWrongProxy
	}
	return nil
}

func (p *Proxy) removeEdge(pred *Node, slot int, succ *Node) {
	delete(p.liveEdges, edgeKey{pred, slot})
	for i := range succ.ins {
		if succ.ins[i].pred == pred && succ.ins[i].slot == slot {
			succ.ins[i] = succ.ins[len(succ.ins)-1]
			succ.ins = succ.ins[:len(succ.ins)-1]
			return
		}
	}
}

// CheckInvariants audits the proxy's bookkeeping: every recorded live
// edge must run between unfreed nodes and still be present in the
// predecessor's out-slot, and the live-node count must reconcile with
// the alloc/free totals. The chaos harness runs it after every fault
// storm; a non-nil return means the lazy safety invariant broke.
func (p *Proxy) CheckInvariants() error {
	for e := range p.liveEdges {
		if e.pred == nil || e.pred.freed {
			return fmt.Errorf("memwrapper: live edge from freed node (slot %d)", e.slot)
		}
		if e.slot < 0 || e.slot >= len(e.pred.outs) {
			return fmt.Errorf("memwrapper: live edge with out-of-range slot %d", e.slot)
		}
		succ := e.pred.outs[e.slot]
		if succ == nil {
			return fmt.Errorf("memwrapper: live edge (slot %d) not present in out-slot", e.slot)
		}
		if succ.freed {
			return fmt.Errorf("memwrapper: out-slot %d points at freed node", e.slot)
		}
	}
	if p.liveNodes < 0 {
		return fmt.Errorf("memwrapper: negative live-node count %d", p.liveNodes)
	}
	if p.allocs-p.frees != p.liveNodes {
		return fmt.Errorf("memwrapper: live count %d != allocs %d - frees %d",
			p.liveNodes, p.allocs, p.frees)
	}
	return nil
}

func (p *Proxy) maybeFree(n *Node) {
	if n.freed || n.owned || n.ref > 0 {
		return
	}
	// Lazy safety checking: clear every incoming edge so predecessors
	// never observe a dangling pointer.
	for _, e := range n.ins {
		if !e.pred.freed && e.pred.outs[e.slot] == n {
			e.pred.outs[e.slot] = nil
			delete(p.liveEdges, edgeKey{e.pred, e.slot})
		}
	}
	n.ins = n.ins[:0]
	// Remove reverse records held by successors.
	for slot, succ := range n.outs {
		if succ != nil {
			p.removeEdge(n, slot, succ)
			n.outs[slot] = nil
		}
	}
	n.freed = true
	p.liveNodes--
	p.frees++
	if p.OnFree != nil {
		p.OnFree(n)
	}
	n.data = nil
}
