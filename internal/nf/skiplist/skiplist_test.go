package skiplist

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"enetstl/internal/memwrapper"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

func mkPkt(key [nf.KeyLen]byte, op uint32, valByte byte) []byte {
	pkt := make([]byte, nf.PktSize)
	copy(pkt, key[:])
	binary.LittleEndian.PutUint32(pkt[nf.OffOp:], op)
	for i := nf.OffValue; i < nf.OffValue+ValueSize; i++ {
		pkt[i] = valByte
	}
	return pkt
}

func do(t *testing.T, s *SkipList, key [nf.KeyLen]byte, op uint32, valByte byte) uint64 {
	t.Helper()
	got, err := s.Process(mkPkt(key, op, valByte))
	if err != nil {
		t.Fatalf("%v op %d: %v", s.Flavor(), op, err)
	}
	return got
}

func TestEBPFFlavorRejected(t *testing.T) {
	if _, err := New(nf.EBPF); err == nil {
		t.Fatal("pure-eBPF skip list should be unimplementable (P1)")
	}
}

func TestInsertLookupDelete(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.ENetSTL} {
		s, err := New(flavor)
		if err != nil {
			t.Fatalf("%v: %v", flavor, err)
		}
		trace := pktgen.Generate(pktgen.Config{Flows: 200, Packets: 0, Seed: 41})
		for i := 0; i < 200; i++ {
			if got := do(t, s, trace.FlowKeys[i], nf.OpUpdate, byte(i)); got != Inserted {
				t.Fatalf("%v: insert %d -> %d", flavor, i, got)
			}
		}
		for i := 0; i < 200; i++ {
			want := FoundBase + uint64(byte(i))
			if got := do(t, s, trace.FlowKeys[i], nf.OpLookup, 0); got != want {
				t.Fatalf("%v: lookup %d -> %d, want %d", flavor, i, got, want)
			}
		}
		for i := 0; i < 100; i++ {
			if got := do(t, s, trace.FlowKeys[i], nf.OpDelete, 0); got != DeletedV {
				t.Fatalf("%v: delete %d -> %d", flavor, i, got)
			}
		}
		for i := 0; i < 200; i++ {
			got := do(t, s, trace.FlowKeys[i], nf.OpLookup, 0)
			if i < 100 && got != NotFound {
				t.Fatalf("%v: deleted key %d still found (%d)", flavor, i, got)
			}
			if i >= 100 && got == NotFound {
				t.Fatalf("%v: surviving key %d lost", flavor, i)
			}
		}
	}
}

func TestLookupMissingKey(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.ENetSTL} {
		s, err := New(flavor)
		if err != nil {
			t.Fatal(err)
		}
		var key [nf.KeyLen]byte
		key[0] = 0xEE
		if got := do(t, s, key, nf.OpLookup, 0); got != NotFound {
			t.Fatalf("%v: empty-list lookup -> %d", flavor, got)
		}
		if got := do(t, s, key, nf.OpDelete, 0); got != NotFound {
			t.Fatalf("%v: empty-list delete -> %d", flavor, got)
		}
	}
}

// TestFlavorsAgreeRandomOps drives an identical random op sequence
// through both flavours and a map model; verdicts must agree everywhere.
func TestFlavorsAgreeRandomOps(t *testing.T) {
	kernel, err := New(nf.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	estl, err := New(nf.ENetSTL)
	if err != nil {
		t.Fatal(err)
	}
	trace := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 0, Seed: 42})
	model := make(map[int]int) // flow -> multiset count
	rng := rand.New(rand.NewSource(43))
	for op := 0; op < 2000; op++ {
		f := rng.Intn(64)
		var code uint32
		switch rng.Intn(3) {
		case 0:
			code = nf.OpLookup
		case 1:
			code = nf.OpUpdate
		case 2:
			code = nf.OpDelete
		}
		a := do(t, kernel, trace.FlowKeys[f], code, byte(f))
		b := do(t, estl, trace.FlowKeys[f], code, byte(f))
		if a != b {
			t.Fatalf("op %d (flow %d code %d): kernel=%d enetstl=%d", op, f, code, a, b)
		}
		switch code {
		case nf.OpUpdate:
			if a != Inserted {
				t.Fatalf("op %d: insert verdict %d", op, a)
			}
			model[f]++
		case nf.OpDelete:
			if model[f] > 0 {
				if a != DeletedV {
					t.Fatalf("op %d: delete verdict %d with count %d", op, a, model[f])
				}
				model[f]--
			} else if a != NotFound {
				t.Fatalf("op %d: delete of absent key -> %d", op, a)
			}
		case nf.OpLookup:
			if model[f] > 0 && a < FoundBase {
				t.Fatalf("op %d: lookup missed present key (%d)", op, a)
			}
			if model[f] == 0 && a != NotFound {
				t.Fatalf("op %d: lookup found absent key (%d)", op, a)
			}
		}
	}
}

// TestOrderedDrain checks the list is key-ordered: insert shuffled keys
// with distinct k0, then repeatedly delete the minimum via lookup of
// ascending keys.
func TestOrderedDrain(t *testing.T) {
	s, err := New(nf.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	freed := countFrees(s)
	keys := make([][nf.KeyLen]byte, 50)
	order := rand.New(rand.NewSource(44)).Perm(50)
	for i, j := range order {
		binary.LittleEndian.PutUint64(keys[i][:], uint64(j+1))
	}
	for i := range keys {
		do(t, s, keys[i], nf.OpUpdate, byte(i))
	}
	sort.Slice(keys, func(a, b int) bool {
		return binary.LittleEndian.Uint64(keys[a][:]) < binary.LittleEndian.Uint64(keys[b][:])
	})
	for i := range keys {
		if got := do(t, s, keys[i], nf.OpDelete, 0); got != DeletedV {
			t.Fatalf("drain %d: %d", i, got)
		}
	}
	if *freed != len(keys) {
		t.Fatalf("residue: %d of %d nodes freed", *freed, len(keys))
	}
}

// countFrees counts the nodes s's proxy frees from now on: every
// element a delete removes must come back to the proxy.
func countFrees(s *SkipList) *int {
	n := new(int)
	prev := s.proxy.OnFree
	s.proxy.OnFree = func(nd *memwrapper.Node) {
		*n++
		if prev != nil {
			prev(nd)
		}
	}
	return n
}

// TestNoLeaksAfterChurn verifies the proxy frees everything on delete.
func TestNoLeaksAfterChurn(t *testing.T) {
	s, err := New(nf.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	freed := countFrees(s)
	trace := pktgen.Generate(pktgen.Config{Flows: 100, Packets: 0, Seed: 45})
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			do(t, s, trace.FlowKeys[i], nf.OpUpdate, 0)
		}
		for i := 0; i < 100; i++ {
			if got := do(t, s, trace.FlowKeys[i], nf.OpDelete, 0); got != DeletedV {
				t.Fatalf("round %d delete %d: %d", round, i, got)
			}
		}
		if *freed != 100*(round+1) {
			t.Fatalf("round %d: %d leaked nodes", round, 100*(round+1)-*freed)
		}
	}
}
