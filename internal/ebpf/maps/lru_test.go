package maps

// Tests for the LRU surfaces the overload-guard plane added: churn
// counters (Evictions/InsertFails), the batch EvictOldest degrade
// primitive, and a reference-model check of eviction order under
// adversarial churn.

import (
	"encoding/binary"
	"runtime"
	"testing"
)

func lruKey(i uint64) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], i)
	return k[:]
}

func TestLRUCounters(t *testing.T) {
	l := Must(NewLRUHash(8, 8, 4))
	for i := uint64(0); i < 4; i++ {
		if err := l.Update(lruKey(i), lruKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Evictions != 0 || l.InsertFails != 0 {
		t.Fatalf("counters moved while filling: %d/%d", l.Evictions, l.InsertFails)
	}
	// Refreshing an existing key is not an eviction.
	if err := l.Update(lruKey(0), lruKey(9)); err != nil {
		t.Fatal(err)
	}
	if l.Evictions != 0 {
		t.Fatal("refresh counted as eviction")
	}
	// Ten distinct inserts past capacity: ten evictions, zero fails.
	for i := uint64(10); i < 20; i++ {
		if err := l.Update(lruKey(i), lruKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Evictions != 10 || l.InsertFails != 0 {
		t.Fatalf("churn counters: evictions %d (want 10), fails %d (want 0)", l.Evictions, l.InsertFails)
	}
}

func TestLRUEvictOldest(t *testing.T) {
	l := Must(NewLRUHash(8, 8, 8))
	for i := uint64(0); i < 8; i++ {
		if err := l.Update(lruKey(i), lruKey(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 and 1 so the oldest quarter is {2, 3}.
	l.Lookup(lruKey(0))
	l.Lookup(lruKey(1))
	if got := l.EvictOldest(2); got != 2 {
		t.Fatalf("EvictOldest(2) = %d", got)
	}
	if l.Len() != 6 || l.Evictions != 2 {
		t.Fatalf("len %d evictions %d after batch", l.Len(), l.Evictions)
	}
	for _, gone := range []uint64{2, 3} {
		if l.Lookup(lruKey(gone)) != nil {
			t.Fatalf("key %d survived EvictOldest", gone)
		}
	}
	for _, kept := range []uint64{0, 1, 4, 5, 6, 7} {
		if l.Lookup(lruKey(kept)) == nil {
			t.Fatalf("key %d wrongly evicted", kept)
		}
	}
	// Asking for more than remain drains the table and reports the truth.
	if got := l.EvictOldest(100); got != 6 {
		t.Fatalf("EvictOldest(100) = %d, want 6", got)
	}
	if l.Len() != 0 || l.tail != -1 || l.head != -1 {
		t.Fatalf("table not empty after full drain: len %d head %d tail %d", l.Len(), l.head, l.tail)
	}
	// The drained table accepts fresh inserts cleanly.
	if err := l.Update(lruKey(42), lruKey(42)); err != nil {
		t.Fatalf("insert after drain: %v", err)
	}
	if l.Lookup(lruKey(42)) == nil {
		t.Fatal("insert after drain not visible")
	}
}

// TestLRUChurnOrderModel drives an adversarial churn mix (inserts,
// refreshes, batch evictions) against a reference LRU model and
// requires the surviving set and recency order to match exactly — the
// eviction-order contract the conntrack watermark probes assume.
func TestLRUChurnOrderModel(t *testing.T) {
	const cap = 16
	l := Must(NewLRUHash(8, 8, cap))
	// Reference model: slice of keys, most recent last.
	var model []uint64
	touch := func(k uint64) {
		for i, m := range model {
			if m == k {
				model = append(append(model[:i:i], model[i+1:]...), k)
				return
			}
		}
	}
	insert := func(k uint64) {
		for i, m := range model {
			if m == k {
				model = append(append(model[:i:i], model[i+1:]...), k)
				return
			}
		}
		if len(model) >= cap {
			model = model[1:]
		}
		model = append(model, k)
	}
	// A deterministic churn schedule: bursts of new flows, interleaved
	// refreshes of older ones, and periodic batch evictions.
	next := uint64(0)
	for round := 0; round < 50; round++ {
		for b := 0; b < 5; b++ {
			if err := l.Update(lruKey(next), lruKey(next)); err != nil {
				t.Fatalf("round %d insert %d: %v", round, next, err)
			}
			insert(next)
			next++
		}
		if len(model) > 3 {
			k := model[len(model)/2]
			if l.Lookup(lruKey(k)) == nil {
				t.Fatalf("round %d: modeled key %d missing", round, k)
			}
			touch(k)
		}
		if round%10 == 9 {
			n := l.EvictOldest(4)
			if n > len(model) {
				t.Fatalf("round %d: evicted %d with only %d modeled", round, n, len(model))
			}
			model = model[n:]
		}
	}
	if l.Len() != len(model) {
		t.Fatalf("table holds %d entries, model %d", l.Len(), len(model))
	}
	for _, k := range model {
		if l.Lookup(lruKey(k)) == nil {
			t.Fatalf("modeled survivor %d missing from table", k)
		}
		touch(k) // keep model in step with the lookup's recency bump
	}
	// Eviction order must now replay the model's order exactly.
	for len(model) > 0 {
		if l.EvictOldest(1) != 1 {
			t.Fatal("EvictOldest stalled with entries remaining")
		}
		gone := model[0]
		model = model[1:]
		if l.Lookup(lruKey(gone)) != nil {
			t.Fatalf("evicted %d out of LRU order", gone)
		}
	}
}

// TestLRUInsertFails exercises the refusal counter through a full probe
// group: a Faulty wrapper is the usual source, but a raw table refuses
// only when the arena itself does, so force it via the inner hash.
func TestLRUInsertFails(t *testing.T) {
	l := Must(NewLRUHash(8, 8, 2))
	if err := l.Update(lruKey(1), make([]byte, 4)); err == nil {
		t.Fatal("short value accepted")
	}
	if l.InsertFails != 0 {
		t.Fatal("size validation should not count as an insert fail")
	}
}

// heapAfterGC is the live heap: HeapAlloc once two forced collections
// have swept everything unreachable.
func heapAfterGC() int {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// TestLRUFootprintCoversHeap holds the map-memory quota to the truth:
// a full LRU map keeps no heap that Footprint() does not meter. The
// slack is 2 % plus 4 KB for the two structs, the slice headers and
// size-class rounding. A key→slot Go map kept beside the core, which
// Footprint() cannot see, reads +70 % at 128 entries and +61 % at
// 65 536. The runtime now and then allocates for itself inside the
// window (≈ 6 KB once, after a process's first forced collections), so
// a reading out of bounds is taken again: an unmetered structure shows
// in every reading, a stray allocation in one.
func TestLRUFootprintCoversHeap(t *testing.T) {
	// measure fills an n-entry map, churns every entry out once, and
	// returns the live heap it added beside its footprint.
	measure := func(n int) (grew, fp int) {
		before := heapAfterGC()
		l := Must(NewLRUHash(16, 16, n))
		var k [16]byte
		for i := 0; i < 2*n; i++ {
			binary.LittleEndian.PutUint64(k[:], uint64(i))
			if err := l.Update(k[:], k[:]); err != nil {
				t.Fatal(err)
			}
		}
		grew = heapAfterGC() - before
		runtime.KeepAlive(l)
		return grew, l.Footprint()
	}
	off := func(grew, fp int) bool {
		slack := fp/50 + 4096
		return grew > fp+slack || grew < fp-slack
	}
	for _, n := range []int{128, 65536} {
		grew, fp := measure(n)
		for retry := 0; retry < 2 && off(grew, fp); retry++ {
			grew, fp = measure(n)
		}
		if off(grew, fp) {
			t.Errorf("%d entries: live heap grew %d B, Footprint() = %d B (%+.1f %%)",
				n, grew, fp, 100*float64(grew-fp)/float64(fp))
		}
	}
}

// TestLRUOpsDoNotAllocate pins every LRU entry point at zero
// allocations on a full map: with one index there is no key string to
// build, on a hit, a miss, an insert or an eviction.
func TestLRUOpsDoNotAllocate(t *testing.T) {
	const n = 128
	l := Must(NewLRUHash(8, 8, n))
	var kb, vb [8]byte
	key := func(i uint64) []byte {
		binary.LittleEndian.PutUint64(kb[:], i)
		return kb[:]
	}
	next := uint64(0) // first key never inserted
	insert := func() {
		if err := l.Update(key(next), vb[:]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < n {
		insert()
	}
	newest := func() []byte { return key(next - 1) }
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Lookup hit", func() {
			if l.Lookup(newest()) == nil {
				t.Fatal("resident key missing")
			}
		}},
		{"Lookup miss", func() {
			if l.Lookup(key(next)) != nil {
				t.Fatal("absent key found")
			}
		}},
		{"LookupArena", func() {
			if _, _, ok := l.LookupArena(newest()); !ok {
				t.Fatal("resident key missing")
			}
		}},
		{"Update overwrite", func() {
			if err := l.Update(newest(), vb[:]); err != nil {
				t.Fatal(err)
			}
		}},
		{"Update insert with eviction", func() {
			ev := l.Evictions
			insert()
			if l.Evictions != ev+1 {
				t.Fatal("insert into a full map did not evict")
			}
		}},
		{"Delete", func() {
			if err := l.Delete(newest()); err != nil {
				t.Fatal(err)
			}
			insert()
		}},
		{"EvictOldest", func() {
			if l.EvictOldest(1) != 1 {
				t.Fatal("nothing evicted")
			}
			insert()
		}},
	} {
		if a := testing.AllocsPerRun(100, op.f); a != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", op.name, a)
		}
	}
}
