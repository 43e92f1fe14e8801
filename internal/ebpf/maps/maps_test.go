package maps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func key4(i uint32) []byte {
	var k [4]byte
	binary.LittleEndian.PutUint32(k[:], i)
	return k[:]
}

func TestArrayBasics(t *testing.T) {
	a := Must(NewArray(8, 4))
	if a.Lookup(key4(4)) != nil {
		t.Fatal("out-of-range index returned a value")
	}
	v := a.Lookup(key4(2))
	if v == nil || len(v) != 8 {
		t.Fatalf("lookup: %v", v)
	}
	copy(v, "ABCDEFGH") // writes alias backing store
	if !bytes.Equal(a.Lookup(key4(2)), []byte("ABCDEFGH")) {
		t.Fatal("aliasing write lost")
	}
	if err := a.Delete(key4(2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Lookup(key4(2)), make([]byte, 8)) {
		t.Fatal("delete did not zero")
	}
	if err := a.Update(key4(1), []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(key4(1), []byte("short")); err != ErrValueSize {
		t.Fatalf("short value: %v", err)
	}
	if err := a.Update([]byte{1}, []byte("12345678")); err != ErrKeySize {
		t.Fatalf("short key: %v", err)
	}
	if err := a.Update(key4(4), []byte("12345678")); err != ErrNotFound {
		t.Fatalf("out-of-range update: %v, want ErrNotFound", err)
	}
	if err := a.Delete([]byte{1, 2}); err != ErrKeySize {
		t.Fatalf("short delete key: %v", err)
	}
}

func TestConstructorErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"array zero", func() error { _, err := NewArray(0, 4); return err }()},
		{"array negative", func() error { _, err := NewArray(8, -1); return err }()},
		{"array huge", func() error { _, err := NewArray(1<<20, 1<<20); return err }()},
		{"percpu zero cpus", func() error { _, err := NewPerCPUArray(4, 4, 0); return err }()},
		{"percpu absurd cpus", func() error { _, err := NewPerCPUArray(4, 4, 1<<20); return err }()},
		{"percpu bad array", func() error { _, err := NewPerCPUArray(0, 4, 2); return err }()},
		{"hash zero key", func() error { _, err := NewHash(0, 4, 4); return err }()},
		{"hash zero entries", func() error { _, err := NewHash(4, 4, 0); return err }()},
		{"lru bad hash", func() error { _, err := NewLRUHash(4, -1, 4); return err }()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", c.name, c.err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic on error")
		}
	}()
	Must(NewArray(0, 0))
}

// TestWrongSizeKeys drives wrong-size keys through every map type:
// Update/Delete must fail with ErrKeySize and Lookup must miss, never
// alias a truncated or padded key.
func TestWrongSizeKeys(t *testing.T) {
	val := func(m Map) []byte { return make([]byte, m.ValueSize()) }
	cases := []struct {
		name string
		m    Map
	}{
		{"array", Must[Map](NewArray(8, 4))},
		{"hash", Must[Map](NewHash(4, 8, 16))},
		{"lru_hash", Must[Map](NewLRUHash(4, 8, 16))},
	}
	for _, c := range cases {
		good := make([]byte, c.m.KeySize())
		if err := c.m.Update(good, val(c.m)); err != nil {
			t.Fatalf("%s: good update: %v", c.name, err)
		}
		for _, bad := range [][]byte{nil, make([]byte, c.m.KeySize()-1), make([]byte, c.m.KeySize()+1), make([]byte, 2*c.m.KeySize())} {
			if err := c.m.Update(bad, val(c.m)); err != ErrKeySize {
				t.Errorf("%s: update with %d-byte key: %v, want ErrKeySize", c.name, len(bad), err)
			}
			if v := c.m.Lookup(bad); v != nil {
				t.Errorf("%s: lookup with %d-byte key returned a value", c.name, len(bad))
			}
			if err := c.m.Delete(bad); err != ErrKeySize {
				t.Errorf("%s: delete with %d-byte key: %v, want ErrKeySize", c.name, len(bad), err)
			}
		}
		if am, ok := c.m.(ArenaMap); ok {
			if _, _, found := am.LookupArena(make([]byte, c.m.KeySize()+1)); found {
				t.Errorf("%s: LookupArena resolved a wrong-size key", c.name)
			}
		}
	}
}

func TestArrayArena(t *testing.T) {
	a := Must(NewArray(16, 8))
	if a.ArenaCount() != 1 || len(a.Arena(0)) != 128 {
		t.Fatal("arena shape wrong")
	}
	_, off, ok := a.LookupArena(key4(3))
	if !ok || off != 48 {
		t.Fatalf("LookupArena: off=%d ok=%v", off, ok)
	}
	if _, _, ok := a.LookupArena(key4(8)); ok {
		t.Fatal("OOB index resolved")
	}
}

func TestHashBasics(t *testing.T) {
	h := Must(NewHash(8, 4, 100))
	k := []byte("12345678")
	if h.Lookup(k) != nil {
		t.Fatal("missing key found")
	}
	if err := h.Update(k, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Lookup(k), []byte{1, 2, 3, 4}) {
		t.Fatal("roundtrip failed")
	}
	if err := h.Update(k, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Fatalf("len = %d after overwrite", h.Len())
	}
	if err := h.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(k); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
}

func TestHashCapacity(t *testing.T) {
	h := Must(NewHash(8, 8, 10))
	var k [8]byte
	for i := 0; i < 10; i++ {
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		if err := h.Update(k[:], k[:]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	binary.LittleEndian.PutUint64(k[:], 10)
	if err := h.Update(k[:], k[:]); err != ErrNoSpace {
		t.Fatalf("overfill: %v", err)
	}
}

// TestHashModel drives random ops against a Go map.
func TestHashModel(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Must(NewHash(8, 8, 64))
		model := map[uint64][8]byte{}
		for op := 0; op < 400; op++ {
			var k, v [8]byte
			ki := uint64(rng.Intn(96))
			binary.LittleEndian.PutUint64(k[:], ki)
			rng.Read(v[:])
			switch rng.Intn(3) {
			case 0:
				if len(model) < 64 || hasKey(model, ki) {
					if h.Update(k[:], v[:]) == nil {
						model[ki] = v
					}
				}
			case 1:
				got := h.Lookup(k[:])
				want, ok := model[ki]
				if ok != (got != nil) {
					return false
				}
				if ok && !bytes.Equal(got, want[:]) {
					return false
				}
			case 2:
				err := h.Delete(k[:])
				if _, ok := model[ki]; ok != (err == nil) {
					return false
				}
				delete(model, ki)
			}
			if h.Len() != len(model) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func hasKey(m map[uint64][8]byte, k uint64) bool {
	_, ok := m[k]
	return ok
}

func TestHashTombstoneReuse(t *testing.T) {
	// Insert/delete churn far beyond capacity must keep working
	// (tombstones must be reusable).
	h := Must(NewHash(8, 8, 4))
	var k [8]byte
	for i := 0; i < 1000; i++ {
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		if err := h.Update(k[:], k[:]); err != nil {
			t.Fatalf("churn insert %d: %v", i, err)
		}
		if err := h.Delete(k[:]); err != nil {
			t.Fatalf("churn delete %d: %v", i, err)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	l := Must(NewLRUHash(8, 8, 3))
	var k [8]byte
	put := func(i uint64) {
		binary.LittleEndian.PutUint64(k[:], i)
		if err := l.Update(k[:], k[:]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	get := func(i uint64) bool {
		binary.LittleEndian.PutUint64(k[:], i)
		return l.Lookup(k[:]) != nil
	}
	put(1)
	put(2)
	put(3)
	get(1) // refresh 1
	put(4) // evicts 2 (least recently used)
	if get(2) {
		t.Fatal("LRU victim survived")
	}
	if !get(1) || !get(3) || !get(4) {
		t.Fatal("wrong entry evicted")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
}

// TestLRUPressure sustains Update pressure far past MaxEntries: every
// insert must succeed (eviction, not ErrNoSpace), the map must never
// exceed capacity, and evicted-then-reinserted keys must return the
// fresh value, not a stale slot. This is the graceful-degradation path
// the chaos harness relies on when map-full faults push NFs onto LRU
// state.
func TestLRUPressure(t *testing.T) {
	const cap = 8
	l := Must(NewLRUHash(8, 8, cap))
	var k, v [8]byte
	put := func(i, val uint64) {
		binary.LittleEndian.PutUint64(k[:], i)
		binary.LittleEndian.PutUint64(v[:], val)
		if err := l.Update(k[:], v[:]); err != nil {
			t.Fatalf("put %d under pressure: %v", i, err)
		}
	}
	get := func(i uint64) []byte {
		binary.LittleEndian.PutUint64(k[:], i)
		return l.Lookup(k[:])
	}
	// 10x capacity worth of distinct keys, several rounds.
	for round := 0; round < 5; round++ {
		for i := uint64(0); i < 10*cap; i++ {
			put(i, uint64(round)<<32|i)
			if l.Len() > cap {
				t.Fatalf("len %d exceeds capacity %d", l.Len(), cap)
			}
		}
	}
	if l.Len() != cap {
		t.Fatalf("len = %d after pressure, want %d", l.Len(), cap)
	}
	// The most recent cap keys survive, in LRU order.
	for i := uint64(10*cap - cap); i < 10*cap; i++ {
		got := get(i)
		if got == nil {
			t.Fatalf("recent key %d evicted", i)
		}
		if want := uint64(4)<<32 | i; binary.LittleEndian.Uint64(got) != want {
			t.Fatalf("key %d: value %#x, want %#x", i, binary.LittleEndian.Uint64(got), want)
		}
	}
	// An evicted key reads as absent, and reinserting it returns the
	// fresh value, never a stale arena slot.
	if get(0) != nil {
		t.Fatal("ancient key survived 50x-capacity pressure")
	}
	put(0, 0xf4e54)
	if got := get(0); got == nil || binary.LittleEndian.Uint64(got) != 0xf4e54 {
		t.Fatalf("reinserted key: %v", got)
	}
}

func TestFaultyDecorator(t *testing.T) {
	base := Must(NewHash(4, 4, 16))
	fail, miss := false, false
	f := &Faulty{M: base, FailUpdate: func() bool { return fail }, MissLookup: func() bool { return miss }}
	k, v := []byte{1, 2, 3, 4}, []byte{9, 9, 9, 9}
	if f.Type() != TypeHash || f.KeySize() != 4 || f.ValueSize() != 4 {
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
	if err := f.Update([]byte{5, 6, 7, 8}, v); err != ErrNoSpace {
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
	if f.Unwrap() != ArenaMap(base) {
		t.Fatal("Unwrap lost the base map")
	}
	if err := f.Delete(k); err != nil {
		t.Fatalf("delete not forwarded: %v", err)
	}
}

func TestPerCPUIsolation(t *testing.T) {
	p := Must(NewPerCPUArray(4, 2, 3))
	if err := p.CPU(1).Update(key4(0), []byte{7, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if p.CPU(0).Lookup(key4(0))[0] != 0 {
		t.Fatal("cpu0 sees cpu1's write")
	}
	if p.CPUData(1)[0] != 7 {
		t.Fatal("cpu1 data lost")
	}
	if p.NumCPU() != 3 {
		t.Fatal("NumCPU wrong")
	}
}

func TestTypeStrings(t *testing.T) {
	for m, want := range map[Map]string{
		Must[Map](NewArray(4, 1)):      "array",
		Must[Map](NewHash(4, 4, 4)):    "hash",
		Must[Map](NewLRUHash(4, 4, 4)): "lru_hash",
	} {
		if got := m.Type().String(); got != want {
			t.Fatalf("type = %q, want %q", got, want)
		}
	}
}
