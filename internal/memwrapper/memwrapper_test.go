package memwrapper

import (
	"testing"
)

func alloc(t *testing.T, p *Proxy, outs int) *Node {
	t.Helper()
	n, err := p.Alloc(outs)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	return n
}

func TestListAddPattern(t *testing.T) {
	// The Listing 3 pattern: alloc, set_owner, connect, release.
	p := Must(NewProxy(16, 1))
	head := alloc(t, p, 1)
	if err := p.SetOwner(head); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(head); err != nil {
		t.Fatal(err)
	}
	if head.Freed() {
		t.Fatal("owned node freed on release")
	}

	for i := 0; i < 3; i++ {
		n := alloc(t, p, 1)
		if err := p.SetOwner(n); err != nil {
			t.Fatal(err)
		}
		next, err := p.Next(head, 0)
		if err != nil {
			t.Fatal(err)
		}
		if next != nil {
			if err := p.Connect(n, 0, next); err != nil {
				t.Fatal(err)
			}
			if err := p.Release(next); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Connect(head, 0, n); err != nil {
			t.Fatal(err)
		}
		n.Data()[0] = byte(i)
		if err := p.Release(n); err != nil {
			t.Fatal(err)
		}
	}

	// Walk: most recently added first (2, 1, 0).
	want := []byte{2, 1, 0}
	cur := head
	curRef := false
	for _, w := range want {
		next, err := p.Next(cur, 0)
		if err != nil {
			t.Fatal(err)
		}
		if next == nil {
			t.Fatalf("list ended early, wanted %d", w)
		}
		if next.Data()[0] != w {
			t.Fatalf("got %d, want %d", next.Data()[0], w)
		}
		if curRef {
			p.Release(cur)
		}
		cur = next
		curRef = true
	}
	if p.liveNodes != 4 {
		t.Fatalf("live nodes = %d, want 4", p.liveNodes)
	}
}

func TestLazyInvalidationOnFree(t *testing.T) {
	// Free b without disconnecting a->b: a's slot must become nil, never
	// dangling (the §4.2 use-after-free scenario).
	p := Must(NewProxy(8, 2))
	a := alloc(t, p, 2)
	b := alloc(t, p, 2)
	if err := p.Connect(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(b); err != nil { // b: ref 1 -> 0, not owned -> freed
		t.Fatal(err)
	}
	if !b.Freed() {
		t.Fatal("b not freed")
	}
	next, err := p.Next(a, 0)
	if err != nil {
		t.Fatalf("Next after free: %v", err)
	}
	if next != nil {
		t.Fatal("dangling pointer observable after free")
	}
}

func TestRefcountKeepsNodeAlive(t *testing.T) {
	p := Must(NewProxy(8, 1))
	a := alloc(t, p, 1)
	b := alloc(t, p, 1)
	p.Connect(a, 0, b)
	got, _ := p.Next(a, 0) // b ref = 2
	if err := p.Release(b); err != nil {
		t.Fatal(err)
	}
	if b.Freed() {
		t.Fatal("b freed while a reference is held")
	}
	if got.Data()[0] != 0 {
		t.Fatal("data unreadable")
	}
	if err := p.Release(got); err != nil {
		t.Fatal(err)
	}
	if !b.Freed() {
		t.Fatal("b not freed after last release")
	}
}

func TestOwnershipBlocksFree(t *testing.T) {
	p := Must(NewProxy(8, 1))
	n := alloc(t, p, 1)
	p.SetOwner(n)
	p.Release(n)
	if n.Freed() {
		t.Fatal("owned node freed")
	}
	if err := p.UnsetOwner(n); err != nil {
		t.Fatal(err)
	}
	if !n.Freed() {
		t.Fatal("unowned zero-ref node not freed")
	}
}

func TestConnectOverwriteUpdatesReverseEdges(t *testing.T) {
	p := Must(NewProxy(8, 1))
	a := alloc(t, p, 1)
	b := alloc(t, p, 1)
	c := alloc(t, p, 1)
	p.SetOwner(a)
	p.Connect(a, 0, b)
	p.Connect(a, 0, c) // overwrite: a->c
	// Freeing b must not clear a->c.
	p.Release(b)
	next, _ := p.Next(a, 0)
	if next != c {
		t.Fatal("overwritten edge damaged by stale reverse edge")
	}
	p.Release(next)
}

func TestDisconnect(t *testing.T) {
	p := Must(NewProxy(8, 1))
	a := alloc(t, p, 1)
	b := alloc(t, p, 1)
	p.Connect(a, 0, b)
	if err := p.Disconnect(a, 0); err != nil {
		t.Fatal(err)
	}
	if next, _ := p.Next(a, 0); next != nil {
		t.Fatal("edge survives disconnect")
	}
	// Disconnect of an empty slot is a no-op.
	if err := p.Disconnect(a, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFreedNodeOperationsFail(t *testing.T) {
	p := Must(NewProxy(8, 1))
	a := alloc(t, p, 1)
	b := alloc(t, p, 1)
	p.Release(b)
	if err := p.Connect(a, 0, b); err == nil {
		t.Fatal("connect to freed node succeeded")
	}
	if err := p.SetOwner(b); err == nil {
		t.Fatal("set_owner on freed node succeeded")
	}
	if err := p.Release(b); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestWrongProxyRejected(t *testing.T) {
	p1 := Must(NewProxy(8, 1))
	p2 := Must(NewProxy(8, 1))
	a := alloc(t, p1, 1)
	if err := p2.Release(a); err == nil {
		t.Fatal("cross-proxy release succeeded")
	}
}

func TestEagerModeDetectsNothingWhenCorrect(t *testing.T) {
	p := Must(NewProxy(8, 1))
	p.Eager = true
	a := alloc(t, p, 1)
	b := alloc(t, p, 1)
	p.SetOwner(b)
	p.Connect(a, 0, b)
	n, err := p.Next(a, 0)
	if err != nil || n != b {
		t.Fatalf("eager traversal failed: %v", err)
	}
	p.Release(n)
}

func TestBadSlotErrors(t *testing.T) {
	p := Must(NewProxy(8, 2))
	a := alloc(t, p, 1)
	if _, err := p.Alloc(3); err == nil {
		t.Fatal("alloc beyond MaxOuts succeeded")
	}
	if err := p.Connect(a, 1, a); err == nil {
		t.Fatal("connect beyond node degree succeeded")
	}
	if _, err := p.Next(a, 5); err == nil {
		t.Fatal("next beyond degree succeeded")
	}
}

func TestOnFreeHook(t *testing.T) {
	p := Must(NewProxy(8, 1))
	var freed []*Node
	p.OnFree = func(n *Node) { freed = append(freed, n) }
	a := alloc(t, p, 1)
	p.Release(a)
	if len(freed) != 1 || freed[0] != a {
		t.Fatalf("OnFree calls = %v", freed)
	}
}

func TestStats(t *testing.T) {
	p := Must(NewProxy(8, 1))
	a := alloc(t, p, 1)
	_ = alloc(t, p, 1)
	p.Release(a)
	if p.allocs != 2 || p.frees != 1 || p.liveNodes != 1 {
		t.Fatalf("stats = (%d,%d), live %d", p.allocs, p.frees, p.liveNodes)
	}
}
