package difftest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"enetstl/internal/ebpf/maps"
)

func u64key(i uint64) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint64(k, i)
	return k
}

func TestFaultyDecorator(t *testing.T) {
	base := maps.Must(maps.NewHash(4, 4, 16))
	fail, miss := false, false
	f := &faultyMap{ArenaMap: base, failUpdate: func() bool { return fail }, missLookup: func() bool { return miss }}
	k, v := []byte{1, 2, 3, 4}, []byte{9, 9, 9, 9}
	if f.Type() != maps.TypeHash || f.KeySize() != 4 || f.ValueSize() != 4 {
		t.Fatal("metadata not forwarded")
	}
	if err := f.Update(k, v); err != nil {
		t.Fatalf("pass-through update: %v", err)
	}
	if !bytes.Equal(f.Lookup(k), v) {
		t.Fatal("pass-through lookup missed")
	}
	if _, _, ok := f.LookupArena(k); !ok {
		t.Fatal("pass-through LookupArena missed")
	}
	fail = true
	if err := f.Update([]byte{5, 6, 7, 8}, v); err != maps.ErrNoSpace {
		t.Fatalf("injected update: %v, want ErrNoSpace", err)
	}
	if base.Lookup([]byte{5, 6, 7, 8}) != nil {
		t.Fatal("injected update reached underlying map")
	}
	miss = true
	if f.Lookup(k) != nil {
		t.Fatal("injected miss returned a value")
	}
	if _, _, ok := f.LookupArena(k); ok {
		t.Fatal("injected arena miss resolved")
	}
	if err := f.Delete(k); err != nil {
		t.Fatalf("delete not forwarded: %v", err)
	}
}

// TestFaultyPerCPUPassthrough: a faultyMap over one per-CPU copy
// forwards updates to that copy, and injected faults hit only that copy,
// leaving its siblings untouched.
func TestFaultyPerCPUPassthrough(t *testing.T) {
	never := func() bool { return false }
	p := maps.Must(maps.NewPerCPULRUHash(8, 8, 16, 2))
	fail := false
	f := &faultyMap{ArenaMap: p.CPU(1), failUpdate: func() bool { return fail }, missLookup: never}
	val := []byte{1, 0, 0, 0, 1, 0, 0, 0}
	if err := f.Update(u64key(1), val); err != nil {
		t.Fatal(err)
	}
	if p.CPU(1).Lookup(u64key(1)) == nil || p.CPU(0).Lookup(u64key(1)) != nil {
		t.Fatal("update through faultyMap missed its copy")
	}
	fail = true
	if err := f.Update(u64key(2), val); err != maps.ErrNoSpace {
		t.Fatalf("injected update: %v", err)
	}
	if p.CPU(1).Lookup(u64key(2)) != nil || p.CPU(0).Lookup(u64key(2)) != nil {
		t.Fatal("injected failure mutated the map")
	}
	// LRU flavour: evictions happen below the decorator.
	l := maps.Must(maps.NewLRUHash(8, 8, 4))
	fl := &faultyMap{ArenaMap: l, failUpdate: never, missLookup: never}
	for i := uint64(0); i < 6; i++ {
		if err := fl.Update(u64key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for i := uint64(0); i < 6; i++ {
		if l.Lookup(u64key(i)) != nil {
			held++
		}
	}
	if held != 4 {
		t.Fatalf("LRU under faultyMap holds %d entries, want 4", held)
	}
	if l.Evictions != 2 {
		t.Fatalf("evictions %d, want 2", l.Evictions)
	}
}
