package maps

// Per-CPU map semantics: copy isolation through fixed CPU(i) views, the
// merge-on-read algebra (associative, commutative, shard-count-
// invariant), non-perturbing control-plane reads, concurrent use of
// the views under -race, and fault decorators over one copy.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

func pcKey(i uint64) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint64(k, i)
	return k
}

func pcVal(lanes ...uint32) []byte {
	v := make([]byte, 4*len(lanes))
	for i, l := range lanes {
		binary.LittleEndian.PutUint32(v[i*4:], l)
	}
	return v
}

func TestPerCPUHashIsolation(t *testing.T) {
	p := Must(NewPerCPULRUHash(8, 8, 16, 3))
	if err := p.CPU(1).Update(pcKey(7), pcVal(10, 20)); err != nil {
		t.Fatal(err)
	}
	if p.CPU(0).Lookup(pcKey(7)) != nil {
		t.Fatal("cpu0 sees cpu1's entry")
	}
	if err := p.CPU(0).Delete(pcKey(7)); err != ErrNotFound {
		t.Fatalf("cpu0 delete of cpu1's entry: %v", err)
	}
	if err := p.CPU(2).Update(pcKey(7), pcVal(1, 2)); err != nil {
		t.Fatal(err)
	}
	if n := p.CPU(0).Len() + p.CPU(1).Len() + p.CPU(2).Len(); n != 2 {
		t.Fatalf("total len %d, want 2", n)
	}
	out := make([]byte, 8)
	if !p.MergeLookup(pcKey(7), out, AddU32Lanes) {
		t.Fatal("merge missed a present key")
	}
	if !bytes.Equal(out, pcVal(11, 22)) {
		t.Fatalf("merged lanes %x, want %x", out, pcVal(11, 22))
	}
	if p.MergeLookup(pcKey(8), out, AddU32Lanes) {
		t.Fatal("merge found an absent key")
	}
	if !bytes.Equal(out, make([]byte, 8)) {
		t.Fatal("merge miss left out dirty")
	}
	// Capacity is per copy: each CPU admits maxEntries of its own, and
	// an insert past it evicts from that copy only.
	q := Must(NewPerCPULRUHash(8, 8, 2, 2))
	for cpu := 0; cpu < 2; cpu++ {
		for i := uint64(0); i < 2; i++ {
			if err := q.CPU(cpu).Update(pcKey(i), pcVal(1, 1)); err != nil {
				t.Fatalf("cpu %d insert %d: %v", cpu, i, err)
			}
		}
	}
	if err := q.CPU(1).Update(pcKey(9), pcVal(1, 1)); err != nil {
		t.Fatal(err)
	}
	if q.CPU(1).Peek(pcKey(0)) != nil || q.CPU(1).Evictions != 1 {
		t.Fatal("cpu1 overfill did not evict its own oldest entry")
	}
	if q.CPU(0).Peek(pcKey(0)) == nil || q.CPU(0).Evictions != 0 || q.Evictions() != 1 {
		t.Fatal("cpu1 overfill evicted from cpu0")
	}
}

// TestMergeAlgebra pins the properties sharded aggregation relies on:
// folding lanes with AddU32Lanes/AddU64Lanes is associative and
// commutative, so the merge result cannot depend on CPU enumeration
// order.
func TestMergeAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		lanes := make([][]byte, 5)
		for i := range lanes {
			lanes[i] = make([]byte, 16)
			rng.Read(lanes[i])
		}
		fold := func(order []int, merge MergeFunc) []byte {
			acc := make([]byte, 16)
			for _, i := range order {
				merge(acc, lanes[i])
			}
			return acc
		}
		for _, merge := range []MergeFunc{AddU32Lanes, AddU64Lanes} {
			base := fold([]int{0, 1, 2, 3, 4}, merge)
			perm := rng.Perm(5)
			if !bytes.Equal(base, fold(perm, merge)) {
				t.Fatalf("trial %d: merge not commutative under order %v", trial, perm)
			}
			// Associativity: fold a prefix into an accumulator, then fold
			// that into the rest — lane sums are modular adds, so grouping
			// cannot matter.
			left := fold([]int{0, 1}, merge)
			acc := make([]byte, 16)
			merge(acc, left)
			merge(acc, lanes[2])
			merge(acc, lanes[3])
			merge(acc, lanes[4])
			if !bytes.Equal(base, acc) {
				t.Fatalf("trial %d: merge not associative", trial)
			}
		}
	}
}

// TestPerCPUShardInvariance hash-partitions one keyed update stream
// across 1/2/4/8 CPUs and demands the merged per-key totals be
// bit-identical at every width — the map-level statement of the
// shard-count invariance the sharded replay harness asserts end to
// end. Flows stay below per-copy capacity so no copy evicts (per-CPU
// LRU eviction under pressure is legitimately shard-dependent).
func TestPerCPUShardInvariance(t *testing.T) {
	const flows = 64
	const updates = 20000
	shardOf := func(key []byte, n int) int {
		return int(SlotHash(key)>>17) % n // any deterministic partition
	}
	run := func(ncpu int) map[uint64]uint64 {
		merge := Must(NewPerCPULRUHash(8, 16, 128, ncpu))
		rng := rand.New(rand.NewSource(9))
		for u := 0; u < updates; u++ {
			k := pcKey(uint64(rng.Intn(flows)))
			view := merge.CPU(shardOf(k, ncpu))
			if v := view.Lookup(k); v != nil {
				binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
				continue
			}
			var init [16]byte
			binary.LittleEndian.PutUint64(init[:], 1)
			if err := view.Update(k, init[:]); err != nil {
				t.Fatalf("ncpu=%d update: %v", ncpu, err)
			}
		}
		totals := make(map[uint64]uint64, flows)
		out := make([]byte, 16)
		for f := uint64(0); f < flows; f++ {
			if merge.MergeLookup(pcKey(f), out, AddU64Lanes) {
				totals[f] = binary.LittleEndian.Uint64(out)
			}
		}
		return totals
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no flows merged")
	}
	for _, ncpu := range []int{2, 4, 8} {
		got := run(ncpu)
		if len(got) != len(base) {
			t.Fatalf("ncpu=%d: %d flows merged, want %d", ncpu, len(got), len(base))
		}
		for f, want := range base {
			if got[f] != want {
				t.Fatalf("ncpu=%d flow %d: merged %d, want %d", ncpu, f, got[f], want)
			}
		}
	}
}

// TestPerCPULRUPeekDoesNotPerturb: MergeLookup reads through Peek, so
// an aggregation sweep must not change which entry each copy evicts
// next.
func TestPerCPULRUPeekDoesNotPerturb(t *testing.T) {
	p := Must(NewPerCPULRUHash(8, 8, 3, 2))
	c := p.CPU(0)
	for i := uint64(1); i <= 3; i++ {
		if err := c.Update(pcKey(i), pcVal(uint32(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Recency is 1 < 2 < 3. A merge sweep over every key must leave it
	// so: the next insert still evicts 1, not whatever was swept last.
	out := make([]byte, 8)
	for i := uint64(1); i <= 3; i++ {
		p.MergeLookup(pcKey(i), out, AddU32Lanes)
	}
	if err := c.Update(pcKey(4), pcVal(4, 0)); err != nil {
		t.Fatal(err)
	}
	if c.Peek(pcKey(1)) != nil {
		t.Fatal("merge sweep refreshed recency: LRU victim changed")
	}
	for i := uint64(2); i <= 4; i++ {
		if c.Peek(pcKey(i)) == nil {
			t.Fatalf("key %d wrongly evicted", i)
		}
	}
	// Peek itself must not refresh either.
	l := Must(NewLRUHash(8, 8, 2))
	l.Update(pcKey(1), pcVal(1, 0))
	l.Update(pcKey(2), pcVal(2, 0))
	l.Peek(pcKey(1))
	l.Update(pcKey(3), pcVal(3, 0))
	if l.Peek(pcKey(1)) != nil {
		t.Fatal("Peek refreshed recency")
	}
}

// TestPerCPUConcurrentViews exercises the ParallelRun access pattern
// under -race: one goroutine per CPU hammering its own fixed view, then
// a merge pass validating totals.
func TestPerCPUConcurrentViews(t *testing.T) {
	const ncpu = 8
	const perCPU = 5000
	p := Must(NewPerCPULRUHash(8, 8, 64, ncpu))
	var wg sync.WaitGroup
	for cpu := 0; cpu < ncpu; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			view := p.CPU(cpu)
			for u := 0; u < perCPU; u++ {
				k := pcKey(uint64(u % 32))
				if v := view.Lookup(k); v != nil {
					binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
					continue
				}
				var init [8]byte
				binary.LittleEndian.PutUint64(init[:], 1)
				if err := view.Update(k, init[:]); err != nil {
					t.Errorf("cpu %d: %v", cpu, err)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	out := make([]byte, 8)
	var total uint64
	for f := uint64(0); f < 32; f++ {
		if p.MergeLookup(pcKey(f), out, AddU64Lanes) {
			total += binary.LittleEndian.Uint64(out)
		}
	}
	if total != ncpu*perCPU {
		t.Fatalf("merged %d updates, want %d", total, ncpu*perCPU)
	}
}

// TestPerCPUTypesAndArenas pins what a VM attaches for a per-CPU map:
// each copy is a plain map of the base type with one arena of its own,
// and a write through one copy resolves in that arena and no other.
func TestPerCPUTypesAndArenas(t *testing.T) {
	a := Must(NewPerCPUArray(8, 4, 3))
	l := Must(NewPerCPULRUHash(8, 8, 16, 3))
	for cpu := 0; cpu < 3; cpu++ {
		if a.CPU(cpu).Type() != TypeArray || l.CPU(cpu).Type() != TypeLRUHash {
			t.Fatalf("cpu %d: copy types %v, %v", cpu, a.CPU(cpu).Type(), l.CPU(cpu).Type())
		}
		if a.CPU(cpu).ArenaCount() != 1 || l.CPU(cpu).ArenaCount() != 1 {
			t.Fatal("a per-CPU copy must register exactly one arena")
		}
	}
	c := l.CPU(2)
	if err := c.Update(pcKey(5), pcVal(9, 9)); err != nil {
		t.Fatal(err)
	}
	_, off, ok := c.LookupArena(pcKey(5))
	if !ok {
		t.Fatal("LookupArena missed the copy's own key")
	}
	if got := c.Arena(0)[off : off+8]; !bytes.Equal(got, pcVal(9, 9)) {
		t.Fatalf("arena bytes %x at resolved offset", got)
	}
	if _, _, ok := l.CPU(0).LookupArena(pcKey(5)); ok {
		t.Fatal("another CPU's copy resolved the key")
	}
	if err := a.CPU(1).Update(key4(2), pcVal(7, 7)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.CPUData(1)[16:24], pcVal(7, 7)) || !bytes.Equal(a.CPUData(0), make([]byte, 32)) {
		t.Fatal("CPUData does not alias the written copy alone")
	}
}
