package maps

// Tests specific to the bucketed wide-compare core: the SWAR matcher's
// one-sided-error contract, level-spill and stash mechanics, sticky
// overflow markers, and a randomized cross-impl differential against
// the flat reference core.

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMatchBytesContract pins the SWAR matcher's documented contract on
// random words: no false negatives anywhere, and the lowest set 0x80
// bit always marks a true match. (Bits above a true match may be
// borrow artifacts; callers re-check the tag byte, so artifacts are
// allowed here and deliberately not asserted absent.)
func TestMatchBytesContract(t *testing.T) {
	if err := quick.Check(func(w uint64, b uint8) bool {
		m := matchBytes(w, b)
		for i := 0; i < 8; i++ {
			if uint8(w>>(i*8)) == b && m&(0x80<<(i*8)) == 0 {
				return false // false negative
			}
		}
		if m != 0 {
			low := bits.TrailingZeros64(m) >> 3
			if uint8(w>>(low*8)) != b {
				return false // lowest set bit must be a true match
			}
		}
		return true
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotHashMixes sanity-checks the wide hash: single-bit key flips
// move an average of ~32 output bits (full avalanche), and no two of a
// few thousand structured keys collide outright.
func TestSlotHashMixes(t *testing.T) {
	var total, samples int
	seen := make(map[uint64]bool)
	for i := 0; i < 2000; i++ {
		var k [16]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		h := SlotHash(k[:])
		if seen[h] {
			t.Fatalf("64-bit collision within %d sequential keys", i)
		}
		seen[h] = true
		for bit := 0; bit < 128; bit += 17 {
			flipped := k
			flipped[bit/8] ^= 1 << (bit % 8)
			total += bits.OnesCount64(h ^ SlotHash(flipped[:]))
			samples++
		}
	}
	if avg := float64(total) / float64(samples); avg < 28 || avg > 36 {
		t.Fatalf("avalanche average %.1f bits, want ~32", avg)
	}
}

// collidingBucketKeys brute-forces n distinct keys whose SlotHash
// agrees with key0's modulo mod — the unit-scale version of the pktgen
// adversary's precomputation.
func collidingBucketKeys(n int, mod uint64) [][]byte {
	out := make([][]byte, 0, n)
	var probe [16]byte
	target := ^uint64(0)
	for i := uint64(0); len(out) < n; i++ {
		binary.LittleEndian.PutUint64(probe[:], i)
		h := SlotHash(probe[:])
		if target == ^uint64(0) {
			target = h % mod
		}
		if h%mod == target {
			out = append(out, append([]byte(nil), probe[:]...))
		}
	}
	return out
}

// TestBucketSpillLevels forces one L1 bucket past every level: with 64
// entries the table has 8 L1 buckets, 2 L2 buckets (32 slots), 1 L3
// bucket (32 slots), and a 64-slot stash. 60 keys colliding mod 8 can
// only place 8 in L1; the rest must spill — and all must stay exactly
// retrievable, including after deletes reopen earlier levels.
func TestBucketSpillLevels(t *testing.T) {
	h := Must(NewBucketHash(16, 8, 64))
	keys := collidingBucketKeys(60, 8)
	val := make([]byte, 8)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(val, uint64(i+1))
		if err := h.Update(k, val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if h.SpillsL2 == 0 || h.SpillsL3 == 0 {
		t.Fatalf("colliding inserts did not spill: L2=%d L3=%d", h.SpillsL2, h.SpillsL3)
	}
	if h.Len() != 60 {
		t.Fatalf("len %d, want 60", h.Len())
	}
	for i, k := range keys {
		v := h.Lookup(k)
		if v == nil || binary.LittleEndian.Uint64(v) != uint64(i+1) {
			t.Fatalf("key %d misplaced under spill: %v", i, v)
		}
	}
	// Delete the L1-resident entries; spilled keys must remain reachable
	// (the overflow markers are sticky, so the probe sets don't shrink).
	for i := 0; i < 8; i++ {
		if err := h.Delete(keys[i]); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 8; i < len(keys); i++ {
		if h.Lookup(keys[i]) == nil {
			t.Fatalf("spilled key %d unreachable after L1 deletes", i)
		}
	}
	// Fresh inserts of the same colliding family land back in the
	// reopened L1 slots and are found there.
	fresh := collidingBucketKeys(68, 8)[60:]
	for i, k := range fresh {
		if err := h.Update(k, val); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
		if h.Lookup(k) == nil {
			t.Fatalf("reinserted key %d missing", i)
		}
	}
}

// TestBucketStashExhaustion drives a single-L1-bucket family all the
// way into the stash and to exact capacity: inserts below maxEntries
// must never fail (the ErrNoSpace-parity guarantee the stash exists
// for), the insert at capacity must fail with ErrNoSpace, and freeing
// one slot must re-admit exactly one key.
func TestBucketStashExhaustion(t *testing.T) {
	// conntrack's geometry: 128 entries -> 16 L1 buckets, 4 L2, 1 L3.
	// A mod-16 family stacks one L1 bucket (8 slots), overloads the 4
	// L2 buckets (~30 spills each against 16 slots), fills L3's 32, and
	// the rest must land in the stash.
	const entries = 128
	h := Must(NewBucketHash(16, 8, entries))
	keys := collidingBucketKeys(entries+1, 16)
	val := make([]byte, 8)
	for i := 0; i < entries; i++ {
		if err := h.Update(keys[i], val); err != nil {
			t.Fatalf("insert %d below capacity failed: %v", i, err)
		}
	}
	if h.SpillsStash == 0 {
		t.Fatalf("one-bucket family of %d never reached the stash (L2=%d L3=%d)",
			entries, h.SpillsL2, h.SpillsL3)
	}
	if err := h.Update(keys[entries], val); err != ErrNoSpace {
		t.Fatalf("insert at capacity: %v, want ErrNoSpace", err)
	}
	if err := h.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Update(keys[entries], val); err != nil {
		t.Fatalf("insert after free: %v", err)
	}
	if h.Len() != entries {
		t.Fatalf("len %d, want %d", h.Len(), entries)
	}
}

// TestBucketVsFlatRandomized is the cross-implementation differential:
// identical random op streams against the bucketed core and the flat
// reference table (flat_test.go), presence, bytes, errors, and counts
// compared op for op.
func TestBucketVsFlatRandomized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := Must(NewFlatHash(16, 8, 48))
		bucket := Must(NewBucketHash(16, 8, 48))
		var k [16]byte
		var v [8]byte
		for op := 0; op < 3000; op++ {
			binary.LittleEndian.PutUint64(k[:], uint64(rng.Intn(96)))
			rng.Read(v[:])
			switch rng.Intn(3) {
			case 0:
				ef, eb := flat.Update(k[:], v[:]), bucket.Update(k[:], v[:])
				if (ef == nil) != (eb == nil) {
					t.Fatalf("seed %d op %d: Update flat=%v bucket=%v", seed, op, ef, eb)
				}
			case 1:
				vf, vb := flat.Lookup(k[:]), bucket.Lookup(k[:])
				if (vf == nil) != (vb == nil) || !bytes.Equal(vf, vb) {
					t.Fatalf("seed %d op %d: Lookup flat=%x bucket=%x", seed, op, vf, vb)
				}
			case 2:
				ef, eb := flat.Delete(k[:]), bucket.Delete(k[:])
				if (ef == nil) != (eb == nil) {
					t.Fatalf("seed %d op %d: Delete flat=%v bucket=%v", seed, op, ef, eb)
				}
			}
			if flat.Len() != bucket.Len() {
				t.Fatalf("seed %d op %d: Len flat=%d bucket=%d", seed, op, flat.Len(), bucket.Len())
			}
		}
	}
}
