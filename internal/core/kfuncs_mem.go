package core

import (
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/memwrapper"
)

// registerMemWrapper exposes the §4.2 memory wrapper to programs. Node
// pointers handed to programs are real VM memory regions of
// Config.NodeDataSize bytes (programs read and write payloads
// directly); the kfuncs map those pointers back to native nodes, which
// know their owning proxy, so only node_alloc and proxy_root take a
// proxy handle.
//
// Verifier metadata mirrors the paper: node_alloc / node_next /
// proxy_root are KF_ACQUIRE + KF_RET_NULL, node_release is KF_RELEASE,
// so programs that leak references or skip null checks are rejected at
// load time.
func (l *Lib) registerMemWrapper() {
	nodeSize := l.cfg.NodeDataSize
	nodeArg := vm.ArgSpec{Kind: vm.ArgPtrToMem, Size: nodeSize}

	// kf_node_alloc(proxyH, nOuts) -> node ptr. Error-injectable: the
	// NULL failure path is exactly what KF_RET_NULL already forces
	// programs to handle.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfNodeAlloc, Name: "enetstl_node_alloc",
		Meta: vm.KfuncMeta{NumArgs: 2, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgHandle}, {Kind: vm.ArgScalar},
		}, Ret: vm.RetMem, MemSize: nodeSize, Acquire: true, MayBeNull: true, ErrInject: true},
		Impl: func(machine *vm.VM, a1, a2, _, _, _ uint64) (uint64, error) {
			p, err := l.proxy(a1)
			if err != nil {
				return 0, err
			}
			if p.DataSize() != nodeSize {
				return 0, vm.ErrBadHandle
			}
			n, err := p.Alloc(int(a2))
			if err != nil {
				return 0, nil // allocation failure -> NULL
			}
			return l.ExposeNode(n), nil
		}})

	ownerOp := func(id int32, name string, op func(*memwrapper.Proxy, *memwrapper.Node) error) {
		l.vm.RegisterKfunc(&vm.Kfunc{ID: id, Name: name,
			Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{nodeArg}, Ret: vm.RetScalar},
			Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
				n, err := l.node(a1)
				if err != nil {
					return 0, err
				}
				if err := op(n.Proxy(), n); err != nil {
					return ^uint64(0), nil
				}
				return 0, nil
			}})
	}
	ownerOp(KfNodeSetOwner, "enetstl_node_set_owner", (*memwrapper.Proxy).SetOwner)
	ownerOp(KfNodeUnsetOwner, "enetstl_node_unset_owner", (*memwrapper.Proxy).UnsetOwner)

	// kf_node_connect(predPtr, slot, succPtr).
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfNodeConnect, Name: "enetstl_node_connect",
		Meta: vm.KfuncMeta{NumArgs: 3, Args: [5]vm.ArgSpec{
			nodeArg, {Kind: vm.ArgScalar}, nodeArg,
		}, Ret: vm.RetScalar},
		Impl: func(machine *vm.VM, a1, a2, a3, _, _ uint64) (uint64, error) {
			pred, err := l.node(a1)
			if err != nil {
				return 0, err
			}
			succ, err := l.node(a3)
			if err != nil {
				return 0, err
			}
			if err := pred.Proxy().Connect(pred, int(a2), succ); err != nil {
				return ^uint64(0), nil
			}
			return 0, nil
		}})

	// kf_node_disconnect(predPtr, slot).
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfNodeDisconnect, Name: "enetstl_node_disconnect",
		Meta: vm.KfuncMeta{NumArgs: 2, Args: [5]vm.ArgSpec{
			nodeArg, {Kind: vm.ArgScalar},
		}, Ret: vm.RetScalar},
		Impl: func(machine *vm.VM, a1, a2, _, _, _ uint64) (uint64, error) {
			pred, err := l.node(a1)
			if err != nil {
				return 0, err
			}
			if err := pred.Proxy().Disconnect(pred, int(a2)); err != nil {
				return ^uint64(0), nil
			}
			return 0, nil
		}})

	// kf_node_next(predPtr, slot) -> node ptr (ref taken).
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfNodeNext, Name: "enetstl_node_next",
		Meta: vm.KfuncMeta{NumArgs: 2, Args: [5]vm.ArgSpec{
			nodeArg, {Kind: vm.ArgScalar},
		}, Ret: vm.RetMem, MemSize: nodeSize, Acquire: true, MayBeNull: true},
		Impl: func(machine *vm.VM, a1, a2, _, _, _ uint64) (uint64, error) {
			pred, err := l.node(a1)
			if err != nil {
				return 0, err
			}
			succ, err := pred.Proxy().Next(pred, int(a2))
			if err != nil {
				return 0, err
			}
			if succ == nil {
				return 0, nil
			}
			return l.ExposeNode(succ), nil
		}})

	// kf_node_release(nodePtr).
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfNodeRelease, Name: "enetstl_node_release",
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{nodeArg},
			Ret: vm.RetVoid, ReleaseArg: 1},
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			n, err := l.node(a1)
			if err != nil {
				return 0, err
			}
			if err := n.Proxy().Release(n); err != nil {
				return 0, err
			}
			return 0, nil
		}})

	// kf_proxy_root(proxyH) -> designated root node ptr (ref taken).
	// Error-injectable: a NULL root is the already-handled "structure
	// not initialized yet" path.
	l.vm.RegisterKfunc(&vm.Kfunc{ID: KfProxyRoot, Name: "enetstl_proxy_root",
		Meta: vm.KfuncMeta{NumArgs: 1, Args: [5]vm.ArgSpec{
			{Kind: vm.ArgHandle},
		}, Ret: vm.RetMem, MemSize: nodeSize, Acquire: true, MayBeNull: true, ErrInject: true},
		Impl: func(machine *vm.VM, a1, _, _, _, _ uint64) (uint64, error) {
			p, err := l.proxy(a1)
			if err != nil {
				return 0, err
			}
			root := l.roots[a1]
			if root == nil || root.Freed() {
				return 0, nil
			}
			if err := p.Acquire(root); err != nil {
				return 0, nil
			}
			return l.ExposeNode(root), nil
		}})
}
