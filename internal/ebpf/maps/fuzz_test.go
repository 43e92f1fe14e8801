package maps_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"enetstl/internal/ebpf/maps"
)

// The fuzzed maps are deliberately tiny: a 16-key space over an 8-entry
// table forces collisions, tombstone reuse, capacity rejection, and LRU
// eviction within a few dozen operations.
const (
	fuzzKeySpace   = 16
	fuzzMaxEntries = 8
	fuzzKeySize    = 4
	fuzzValueSize  = 8
)

// fuzzOp decodes one operation from a 3-byte group: selector, key index
// (folded into the small key space), and a value seed expanded to a full
// value. Deterministic decoding means every crashing input replays.
// The selector's high bit is left for driveModel's LRU-only ops, so a
// corpus written before those existed (selectors < 0x80) replays as the
// same Update/Lookup/Delete stream.
func fuzzOp(group []byte) (op int, key, value []byte) {
	op = int(group[0]) % 3
	key = make([]byte, fuzzKeySize)
	binary.LittleEndian.PutUint32(key, uint32(group[1])%fuzzKeySpace)
	value = make([]byte, fuzzValueSize)
	for i := range value {
		value[i] = group[2] + byte(i)
	}
	return op, key, value
}

// modelMap is the executable specification both hash flavours are
// checked against: a Go map plus, for the LRU flavour, a recency order.
type modelMap struct {
	m     map[string][]byte
	order []string // front = most recently used; only for LRU
	lru   bool
	max   int
}

func newModel(lru bool) *modelMap {
	return &modelMap{m: make(map[string][]byte), lru: lru, max: fuzzMaxEntries}
}

func (mm *modelMap) touch(k string) {
	for i, s := range mm.order {
		if s == k {
			mm.order = append(mm.order[:i], mm.order[i+1:]...)
			break
		}
	}
	mm.order = append([]string{k}, mm.order...)
}

// update mirrors Hash.Update / LRUHash.Update: overwrite refreshes,
// insert at capacity either rejects (hash) or evicts the LRU (lru).
func (mm *modelMap) update(key, value []byte) error {
	k := string(key)
	if _, ok := mm.m[k]; ok {
		mm.m[k] = append([]byte(nil), value...)
		if mm.lru {
			mm.touch(k)
		}
		return nil
	}
	if len(mm.m) >= mm.max {
		if !mm.lru {
			return maps.ErrNoSpace
		}
		victim := mm.order[len(mm.order)-1]
		mm.order = mm.order[:len(mm.order)-1]
		delete(mm.m, victim)
	}
	mm.m[k] = append([]byte(nil), value...)
	if mm.lru {
		mm.touch(k)
	}
	return nil
}

func (mm *modelMap) lookup(key []byte) []byte {
	v, ok := mm.m[string(key)]
	if !ok {
		return nil
	}
	if mm.lru {
		mm.touch(string(key))
	}
	return v
}

// peek mirrors LRUHash.Peek: a read that leaves the order alone.
func (mm *modelMap) peek(key []byte) []byte { return mm.m[string(key)] }

// evictOldest mirrors LRUHash.EvictOldest: the n least recently used
// keys go, or all of them when fewer remain.
func (mm *modelMap) evictOldest(n int) int {
	n = min(n, len(mm.order))
	for _, k := range mm.order[len(mm.order)-n:] {
		delete(mm.m, k)
	}
	mm.order = mm.order[:len(mm.order)-n]
	return n
}

func (mm *modelMap) delete(key []byte) error {
	k := string(key)
	if _, ok := mm.m[k]; !ok {
		return maps.ErrNotFound
	}
	delete(mm.m, k)
	if mm.lru {
		for i, s := range mm.order {
			if s == k {
				mm.order = append(mm.order[:i], mm.order[i+1:]...)
				break
			}
		}
	}
	return nil
}

// lenOf reads the entry count off any map that exposes one (both hash
// cores, the LRU layer, and the per-CPU variants all do).
func lenOf(m maps.Map) int {
	if h, ok := m.(interface{ Len() int }); ok {
		return h.Len()
	}
	return -1
}

// driveModel replays one decoded op sequence against a real map and the
// model, asserting result-for-result agreement. For the LRU flavour (m
// is then an *LRUHash) a selector with its high bit set moves the op up
// by three — 3 Peek (0x81), 4 LookupArena (0x82), 5 EvictOldest (0x80)
// — and the map's structural invariant is checked after every op.
func driveModel(t *testing.T, m maps.Map, model *modelMap, data []byte) {
	t.Helper()
	lru, _ := m.(*maps.LRUHash)
	for i := 0; i+3 <= len(data); i += 3 {
		op, key, value := fuzzOp(data[i : i+3])
		if lru != nil && data[i] >= 0x80 {
			op += 3
		}
		switch op {
		case 0:
			gotErr := m.Update(key, value)
			wantErr := model.update(key, value)
			if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
				t.Fatalf("op %d: Update(%x) = %v, model says %v", i/3, key, gotErr, wantErr)
			}
		case 1:
			got := m.Lookup(key)
			want := model.lookup(key)
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d: Lookup(%x) presence = %v, model says %v", i/3, key, got != nil, want != nil)
			}
			if got != nil && !bytes.Equal(got, want) {
				t.Fatalf("op %d: Lookup(%x) = %x, model says %x", i/3, key, got, want)
			}
		case 2:
			gotErr := m.Delete(key)
			wantErr := model.delete(key)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("op %d: Delete(%x) = %v, model says %v", i/3, key, gotErr, wantErr)
			}
		case 3:
			if got, want := lru.Peek(key), model.peek(key); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("op %d: Peek(%x) = %x, model says %x", i/3, key, got, want)
			}
		case 4:
			arena, off, ok := lru.LookupArena(key)
			want := model.lookup(key)
			if ok != (want != nil) {
				t.Fatalf("op %d: LookupArena(%x) presence = %v, model says %v", i/3, key, ok, want != nil)
			}
			if !ok {
				break
			}
			if slot := lru.SlotOf(key); arena != 0 || off != slot*fuzzValueSize {
				t.Fatalf("op %d: LookupArena(%x) = arena %d offset %d, key is in slot %d", i/3, key, arena, off, slot)
			}
			if got := lru.Arena(0)[off : off+fuzzValueSize]; !bytes.Equal(got, want) {
				t.Fatalf("op %d: LookupArena(%x) addresses %x, model says %x", i/3, key, got, want)
			}
		case 5:
			n := int(data[i+2]) % (fuzzMaxEntries + 2)
			if got, want := lru.EvictOldest(n), model.evictOldest(n); got != want {
				t.Fatalf("op %d: EvictOldest(%d) = %d, model says %d", i/3, n, got, want)
			}
			// Exactly the model's n oldest went: Peek keeps the check
			// from disturbing the order it checks.
			var k [fuzzKeySize]byte
			for j := uint32(0); j < fuzzKeySpace; j++ {
				binary.LittleEndian.PutUint32(k[:], j)
				if got, want := lru.Peek(k[:]) != nil, model.peek(k[:]) != nil; got != want {
					t.Fatalf("op %d: after EvictOldest(%d) key %d present = %v, model says %v", i/3, n, j, got, want)
				}
			}
		}
		if n := lenOf(m); n != len(model.m) {
			t.Fatalf("op %d: Len() = %d, model holds %d", i/3, n, len(model.m))
		}
		if lru != nil {
			if err := lru.CheckInvariant(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
	}
	// Post-sequence sweep: every key in the model must be present with
	// the right bytes, every key outside it absent. Read through the
	// non-refreshing path where possible so the sweep itself does not
	// perturb LRU order mid-check (order no longer matters here).
	var key [fuzzKeySize]byte
	for k := 0; k < fuzzKeySpace; k++ {
		binary.LittleEndian.PutUint32(key[:], uint32(k))
		got := m.Lookup(key[:])
		want, ok := model.m[string(key[:])]
		if (got != nil) != ok {
			t.Fatalf("sweep key %d: presence = %v, model says %v", k, got != nil, ok)
		}
		if got != nil && !bytes.Equal(got, want) {
			t.Fatalf("sweep key %d: value = %x, model says %x", k, got, want)
		}
	}
}

// hashSeeds adds the shared op-stream seeds both hash-core fuzz targets
// start from: overwrite churn, fill past capacity, deletes into
// reinsertions (tombstone reuse on the flat core, slot reuse on the
// bucketed one).
func hashSeeds(f *testing.F) {
	f.Add([]byte{0, 1, 1})
	f.Add([]byte{0, 1, 1, 1, 1, 0, 2, 1, 0})
	var seed []byte
	for k := byte(0); k < 12; k++ {
		seed = append(seed, 0, k, k+1)
	}
	for k := byte(0); k < 6; k++ {
		seed = append(seed, 2, k, 0, 0, k+8, k)
	}
	f.Add(seed)
}

// FuzzHashModel cross-checks the flat open-addressed reference table
// (flat_test.go) against the model: update/overwrite, ErrNoSpace at
// capacity, tombstone reuse after deletes, and exact entry counts — so
// the reference TestBucketVsFlatRandomized replays against stays
// independently fuzzed.
func FuzzHashModel(f *testing.F) {
	hashSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := maps.Must(maps.NewFlatHash(fuzzKeySize, fuzzValueSize, fuzzMaxEntries))
		driveModel(t, h, newModel(false), data)
	})
}

// FuzzBucketHashModel cross-checks the bucketed wide-compare core
// against the same model and seeds. The tiny table (2 L1 buckets over a
// 16-key space) keeps every op stream near bucket-overflow territory,
// so the L2/L3/stash spill paths and the sticky overflow markers are in
// constant play.
func FuzzBucketHashModel(f *testing.F) {
	hashSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := maps.Must(maps.NewBucketHash(fuzzKeySize, fuzzValueSize, fuzzMaxEntries))
		driveModel(t, h, newModel(false), data)
	})
}

// FuzzLRUHashModel cross-checks the LRU hash against the model,
// including the recency discipline: lookups (by slice or by arena
// offset) and overwrites refresh, a Peek does not, inserting at
// capacity evicts exactly the least recently used key and EvictOldest
// exactly the n least recently used. The same stream also drives one
// copy of a per-CPU LRU hash through CPU(i), whose sibling must stay
// empty. testdata/fuzz/FuzzLRUHashModel/seed_peek_evict_reinsert fills
// the map, peeks the oldest key, refreshes the next through the arena,
// batch-evicts three and reinserts.
func FuzzLRUHashModel(f *testing.F) {
	f.Add([]byte{0, 1, 1})
	// Fill to capacity, refresh the oldest via lookup, then insert two
	// more: the eviction order must skip the refreshed key.
	var seed []byte
	for k := byte(0); k < fuzzMaxEntries; k++ {
		seed = append(seed, 0, k, k+1)
	}
	seed = append(seed, 1, 0, 0)
	seed = append(seed, 0, 13, 9, 0, 14, 9)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		l := maps.Must(maps.NewLRUHash(fuzzKeySize, fuzzValueSize, fuzzMaxEntries))
		driveModel(t, l, newModel(true), data)
		p := maps.Must(maps.NewPerCPULRUHash(fuzzKeySize, fuzzValueSize, fuzzMaxEntries, 2))
		driveModel(t, p.CPU(1), newModel(true), data)
		if n := p.CPU(0).Len(); n != 0 {
			t.Fatalf("ops on CPU 1's copy left %d entries in CPU 0's", n)
		}
	})
}

// FuzzArrayModel cross-checks the array map against a plain slice,
// including out-of-range and wrong-size keys.
func FuzzArrayModel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 0})
	f.Add([]byte{0, 200, 1}) // out-of-range index
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 4
		a := maps.Must(maps.NewArray(fuzzValueSize, n))
		model := make([]byte, n*fuzzValueSize)
		for i := 0; i+3 <= len(data); i += 3 {
			op := int(data[i]) % 3
			idx := uint32(data[i+1]) % (n * 2) // half the space is out of range
			var key [4]byte
			binary.LittleEndian.PutUint32(key[:], idx)
			value := make([]byte, fuzzValueSize)
			for j := range value {
				value[j] = data[i+2] + byte(j)
			}
			inRange := idx < n
			switch op {
			case 0:
				err := a.Update(key[:], value)
				if inRange {
					if err != nil {
						t.Fatalf("op %d: in-range update failed: %v", i/3, err)
					}
					copy(model[int(idx)*fuzzValueSize:], value)
				} else if !errors.Is(err, maps.ErrNotFound) {
					t.Fatalf("op %d: out-of-range update = %v, want ErrNotFound", i/3, err)
				}
			case 1:
				got := a.Lookup(key[:])
				if inRange {
					want := model[int(idx)*fuzzValueSize : (int(idx)+1)*fuzzValueSize]
					if !bytes.Equal(got, want) {
						t.Fatalf("op %d: lookup(%d) = %x, model %x", i/3, idx, got, want)
					}
				} else if got != nil {
					t.Fatalf("op %d: out-of-range lookup returned a value", i/3)
				}
			case 2:
				err := a.Delete(key[:])
				if inRange {
					if err != nil {
						t.Fatalf("op %d: in-range delete failed: %v", i/3, err)
					}
					clear(model[int(idx)*fuzzValueSize : (int(idx)+1)*fuzzValueSize])
				} else if !errors.Is(err, maps.ErrNotFound) {
					t.Fatalf("op %d: out-of-range delete = %v, want ErrNotFound", i/3, err)
				}
			}
		}
		if !bytes.Equal(a.Data(), model) {
			t.Fatalf("final array state diverged from model")
		}
	})
}

// FuzzPerCPUHashModel cross-checks the per-CPU LRU hash against one LRU
// model per CPU: ops decode as 4-byte groups (op, cpu, key, value seed)
// and go to that CPU's fixed CPU(i) copy, so isolation between copies
// is itself under test — a write or an eviction leaking across CPUs
// diverges the models immediately. A fourth op exercises the
// merge-on-read path, checking MergeLookup with a u32-lane merge
// against the lane-wise sum over the models; it reads without touching
// any copy's recency.
func FuzzPerCPUHashModel(f *testing.F) {
	const fuzzCPUs = 4
	f.Add([]byte{0, 0, 1, 1, 0, 1, 1, 2, 3, 0, 1, 0})
	// Same key on every CPU, then merge; then delete one copy and merge
	// again (partial presence must still report found).
	var seed []byte
	for c := byte(0); c < fuzzCPUs; c++ {
		seed = append(seed, 0, c, 5, c+1)
	}
	seed = append(seed, 3, 0, 5, 0, 2, 1, 5, 0, 3, 0, 5, 0)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := maps.Must(maps.NewPerCPULRUHash(fuzzKeySize, fuzzValueSize, fuzzMaxEntries, fuzzCPUs))
		models := make([]*modelMap, fuzzCPUs)
		for i := range models {
			models[i] = newModel(true)
		}
		for i := 0; i+4 <= len(data); i += 4 {
			op, key, value := fuzzOp([]byte{data[i], data[i+2], data[i+3]})
			cpu := int(data[i+1]) % fuzzCPUs
			if int(data[i])%4 == 3 {
				op = 3
			}
			c, model := p.CPU(cpu), models[cpu]
			switch op {
			case 0:
				gotErr := c.Update(key, value)
				wantErr := model.update(key, value)
				if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
					t.Fatalf("op %d: cpu %d Update(%x) = %v, model says %v", i/4, cpu, key, gotErr, wantErr)
				}
			case 1:
				got := c.Lookup(key)
				want := model.lookup(key)
				if (got == nil) != (want == nil) {
					t.Fatalf("op %d: cpu %d Lookup(%x) presence = %v, model says %v", i/4, cpu, key, got != nil, want != nil)
				}
				if got != nil && !bytes.Equal(got, want) {
					t.Fatalf("op %d: cpu %d Lookup(%x) = %x, model says %x", i/4, cpu, key, got, want)
				}
			case 2:
				gotErr := c.Delete(key)
				wantErr := model.delete(key)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("op %d: cpu %d Delete(%x) = %v, model says %v", i/4, cpu, key, gotErr, wantErr)
				}
			case 3:
				out := make([]byte, fuzzValueSize)
				found := p.MergeLookup(key, out, maps.AddU32Lanes)
				want := make([]byte, fuzzValueSize)
				wantFound := false
				for _, mm := range models {
					if v, ok := mm.m[string(key)]; ok {
						maps.AddU32Lanes(want, v)
						wantFound = true
					}
				}
				if found != wantFound {
					t.Fatalf("op %d: MergeLookup(%x) found = %v, model says %v", i/4, key, found, wantFound)
				}
				if !bytes.Equal(out, want) {
					t.Fatalf("op %d: MergeLookup(%x) = %x, model sum %x", i/4, key, out, want)
				}
			}
			for cpu, mm := range models {
				if n := p.CPU(cpu).Len(); n != len(mm.m) {
					t.Fatalf("op %d: cpu %d Len() = %d, model holds %d", i/4, cpu, n, len(mm.m))
				}
			}
		}
	})
}
