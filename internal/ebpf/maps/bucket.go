package maps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// SlotHash is the bucketed core's hash: an 8-byte-stride rotate-multiply
// mixer with a murmur-style finalizer, exported so adversaries (the
// pktgen hash-collision brute-forcer) can target the real placement
// function. Level-1 bucket choice is SlotHash(key) mod a power of two,
// so keys equal mod 2^k collide in any table with at most 2^k L1
// buckets — the property the attack generator's nested-modulus search
// relies on.
func SlotHash(b []byte) uint64 {
	const (
		m1 = 0x9e3779b97f4a7c15
		m2 = 0xc2b2ae3d27d4eb4f
		m3 = 0xff51afd7ed558ccd
		m4 = 0xc4ceb9fe1a85ec53
	)
	h := uint64(len(b))*m1 ^ 0x8f14e45fceea1681
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b) * m2
		h = bits.RotateLeft64(h, 29) * m1
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h ^= binary.LittleEndian.Uint64(tail[:]) * m2
		h = bits.RotateLeft64(h, 29) * m1
	}
	// fmix64 finalizer: full avalanche so the disjoint bit ranges the
	// three levels index with are independently well-mixed.
	h ^= h >> 33
	h *= m3
	h ^= h >> 33
	h *= m4
	h ^= h >> 33
	return h
}

// fingerprint derives the 1-byte per-slot tag from the top of the hash
// (disjoint from the L1/L2 index bits). Zero is reserved for empty
// slots, so a zero fingerprint is bumped to 1.
func fingerprint(h uint64) uint8 {
	fp := uint8(h >> 56)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// SWAR byte-match constants.
const (
	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

// matchBytes returns a word with 0x80 set in (at least) every byte of w
// equal to b — the classic SIMD-within-a-register compare the bucketed
// layout exists for: one load + five ALU ops screen 8 tags at once.
//
// The borrow trick has a known one-sided error: the LOWEST set 0x80 bit
// is always a true match, but bits above a true match can be borrow
// artifacts. Callers taking only the lowest bit (empty-slot search) get
// an exact answer; callers walking all candidate bits must re-check the
// tag byte before trusting a position.
func matchBytes(w uint64, b uint8) uint64 {
	x := w ^ (swarLSB * uint64(b))
	return (x - swarLSB) &^ x & swarMSB
}

// Bucket widths per level, in slots. L1 is one 64-bit tag word (a
// cache-line-friendly 8-wide compare); L2 and L3 double twice, mirroring
// the 8/16/32 Hash3 shape.
const (
	l1Width = 8
	l2Width = 16
	l3Width = 32
)

// BucketHash is the cache-line-bucketed multi-level hash core. Keys
// hash once; the hash is sliced into an L1 bucket index, an L2 index,
// an L3 index, and a 1-byte fingerprint. Each level's buckets hold the
// fingerprints of their slots packed into 64-bit words, so membership
// screening is an unrolled wide compare rather than a per-slot probe
// walk. Inserts that overflow their L1 bucket spill to L2, then L3,
// then a stash region sized at maxEntries slots — which makes inserts
// below capacity infallible: ErrNoSpace means count >= maxEntries and
// nothing else, despite the bounded buckets.
//
// Sticky overflow markers (ovf1/ovf2, set on spill, never cleared) let
// misses terminate at the first level whose bucket has never
// overflowed; the stash is consulted only while it holds live entries,
// and scans of it stop at its occupancy highwater.
//
// All keys and values live in two contiguous arenas indexed by a global
// slot number (L1 slots, then L2, L3, stash), so slot indices are
// stable for the life of an entry and the value arena registers with
// the VM as one region.
type BucketHash struct {
	keySize, valueSize int
	maxEntries         int
	count              int

	mask1, mask2, mask3       uint64
	l2base, l3base, stashBase int // first global slot of each region
	nslots                    int

	tags []uint64 // slot i's tag is byte i&7 of word i>>3
	keys []byte   // slot i key at i*keySize
	vals []byte   // slot i value at i*valueSize

	ovf1, ovf2 []bool // sticky per-bucket spill markers

	stashLive int // live entries currently in the stash
	stashHi   int // sticky occupancy highwater (slots past stashBase)

	// Spill counters, read by the adversarial suites to prove collision
	// load actually exercised the overflow paths.
	SpillsL2    uint64 // inserts that overflowed their L1 bucket
	SpillsL3    uint64 // ...and their L2 bucket
	SpillsStash uint64 // ...and their L3 bucket, landing in the stash
}

// NewBucketHash creates a bucketed hash map. L1 is sized to hold
// maxEntries at 8 slots per bucket; L2 and L3 shrink by 4x each level.
func NewBucketHash(keySize, valueSize, maxEntries int) (*BucketHash, error) {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("%w: hash %dB keys, %dB values, %d entries",
			ErrConfig, keySize, valueSize, maxEntries)
	}
	b1 := 1
	for b1*l1Width < maxEntries {
		b1 <<= 1
	}
	b2 := max(1, b1/4)
	b3 := max(1, b1/16)
	stashCap := (maxEntries + 7) &^ 7 // whole tag words
	l2base := b1 * l1Width
	l3base := l2base + b2*l2Width
	stashBase := l3base + b3*l3Width
	nslots := stashBase + stashCap
	if int64(nslots)*int64(keySize) > maxMapBytes || int64(nslots)*int64(valueSize) > maxMapBytes {
		return nil, fmt.Errorf("%w: hash of %d entries exceeds memlock bound", ErrConfig, maxEntries)
	}
	h := &BucketHash{
		keySize: keySize, valueSize: valueSize, maxEntries: maxEntries,
		mask1: uint64(b1 - 1), mask2: uint64(b2 - 1), mask3: uint64(b3 - 1),
		l2base: l2base, l3base: l3base, stashBase: stashBase, nslots: nslots,
		tags: make([]uint64, nslots/8),
		keys: make([]byte, nslots*keySize),
		vals: make([]byte, nslots*valueSize),
		ovf1: make([]bool, b1),
		ovf2: make([]bool, b2),
	}
	return h, nil
}

func (h *BucketHash) Type() Type     { return TypeHash }
func (h *BucketHash) KeySize() int   { return h.keySize }
func (h *BucketHash) ValueSize() int { return h.valueSize }

func (h *BucketHash) tagAt(i int) uint8 {
	return uint8(h.tags[i>>3] >> ((i & 7) * 8))
}

func (h *BucketHash) setTag(i int, t uint8) {
	sh := (i & 7) * 8
	h.tags[i>>3] = h.tags[i>>3]&^(uint64(0xff)<<sh) | uint64(t)<<sh
}

func (h *BucketHash) keyAt(i int) []byte {
	off := i * h.keySize
	return h.keys[off : off+h.keySize]
}

func (h *BucketHash) valAt(i int) []byte {
	off := i * h.valueSize
	return h.vals[off : off+h.valueSize : off+h.valueSize]
}

// findIn wide-scans the `words` tag words starting at slot base for
// fingerprint fp and verifies candidates against key. The tag re-check
// screens out SWAR borrow artifacts (and, with fp=1, deleted slots
// whose stale key bytes still match).
func (h *BucketHash) findIn(base, words int, fp uint8, key []byte) int {
	for w := 0; w < words; w++ {
		for m := matchBytes(h.tags[base>>3+w], fp); m != 0; m &= m - 1 {
			slot := base + w*8 + bits.TrailingZeros64(m)>>3
			if h.tagAt(slot) == fp && bytes.Equal(h.keyAt(slot), key) {
				return slot
			}
		}
	}
	return -1
}

// emptyIn returns the first empty slot in the region, or -1. Only the
// lowest match bit per word is taken, so the answer is exact.
func (h *BucketHash) emptyIn(base, words int) int {
	for w := 0; w < words; w++ {
		if m := matchBytes(h.tags[base>>3+w], 0); m != 0 {
			return base + w*8 + bits.TrailingZeros64(m)>>3
		}
	}
	return -1
}

// lookupSlot finds the global slot of key, whose SlotHash is hv, or
// -1. Every operation hashes its key once and hands the hash to the
// probe and, for an insert, to the placement. Each level is consulted
// only if the previous level's bucket has overflowed at some point; the
// probe set for a key is therefore fixed, which is why deletes need no
// tombstones.
func (h *BucketHash) lookupSlot(hv uint64, key []byte) int {
	fp := fingerprint(hv)
	i1 := int(hv & h.mask1)
	if s := h.findIn(i1*l1Width, l1Width/8, fp, key); s >= 0 {
		return s
	}
	if !h.ovf1[i1] {
		return -1
	}
	i2 := int(hv >> 21 & h.mask2)
	if s := h.findIn(h.l2base+i2*l2Width, l2Width/8, fp, key); s >= 0 {
		return s
	}
	if !h.ovf2[i2] {
		return -1
	}
	i3 := int(hv >> 42 & h.mask3)
	if s := h.findIn(h.l3base+i3*l3Width, l3Width/8, fp, key); s >= 0 {
		return s
	}
	if h.stashLive == 0 {
		return -1
	}
	return h.findIn(h.stashBase, (h.stashHi+7)/8, fp, key)
}

// place writes the entry into slot and counts it.
func (h *BucketHash) place(slot int, fp uint8, key, value []byte) {
	h.setTag(slot, fp)
	copy(h.keyAt(slot), key)
	copy(h.valAt(slot), value)
	h.count++
}

// insertAbsent places a key known to be absent (hv is its SlotHash),
// spilling level by level. The stash holds maxEntries slots and at most
// count of them are occupied, so while count < maxEntries this cannot
// fail.
func (h *BucketHash) insertAbsent(hv uint64, key, value []byte) (int, error) {
	fp := fingerprint(hv)
	i1 := int(hv & h.mask1)
	if s := h.emptyIn(i1*l1Width, l1Width/8); s >= 0 {
		h.place(s, fp, key, value)
		return s, nil
	}
	h.ovf1[i1] = true
	h.SpillsL2++
	i2 := int(hv >> 21 & h.mask2)
	if s := h.emptyIn(h.l2base+i2*l2Width, l2Width/8); s >= 0 {
		h.place(s, fp, key, value)
		return s, nil
	}
	h.ovf2[i2] = true
	h.SpillsL3++
	i3 := int(hv >> 42 & h.mask3)
	if s := h.emptyIn(h.l3base+i3*l3Width, l3Width/8); s >= 0 {
		h.place(s, fp, key, value)
		return s, nil
	}
	h.SpillsStash++
	s := h.emptyIn(h.stashBase, (h.nslots-h.stashBase)/8)
	if s < 0 {
		return -1, ErrNoSpace
	}
	h.place(s, fp, key, value)
	h.stashLive++
	if used := s - h.stashBase + 1; used > h.stashHi {
		h.stashHi = used
	}
	return s, nil
}

// Lookup returns a slice aliasing the stored value, or nil.
func (h *BucketHash) Lookup(key []byte) []byte {
	if len(key) != h.keySize {
		return nil
	}
	if s := h.lookupSlot(SlotHash(key), key); s >= 0 {
		return h.valAt(s)
	}
	return nil
}

// Update inserts or overwrites key. ErrNoSpace iff the key is absent
// and count >= maxEntries.
func (h *BucketHash) Update(key, value []byte) error {
	if len(key) != h.keySize {
		return ErrKeySize
	}
	if len(value) != h.valueSize {
		return ErrValueSize
	}
	hv := SlotHash(key)
	if s := h.lookupSlot(hv, key); s >= 0 {
		copy(h.valAt(s), value)
		return nil
	}
	if h.count >= h.maxEntries {
		return ErrNoSpace
	}
	_, err := h.insertAbsent(hv, key, value)
	return err
}

// Delete removes key.
func (h *BucketHash) Delete(key []byte) error {
	if len(key) != h.keySize {
		return ErrKeySize
	}
	s := h.lookupSlot(SlotHash(key), key)
	if s < 0 {
		return ErrNotFound
	}
	h.removeSlot(s)
	return nil
}

// ArenaMap support: all values live in the single vals arena.

func (h *BucketHash) ArenaCount() int    { return 1 }
func (h *BucketHash) Arena(i int) []byte { return h.vals }

// LookupArena resolves key to its slot's value offset.
func (h *BucketHash) LookupArena(key []byte) (int, int, bool) {
	if len(key) != h.keySize {
		return 0, 0, false
	}
	s := h.lookupSlot(SlotHash(key), key)
	if s < 0 {
		return 0, 0, false
	}
	return 0, s * h.valueSize, true
}

// removeSlot frees slot i. The LRU recency layer evicts through it: a
// victim is addressed by the slot its list links through, never by key.
func (h *BucketHash) removeSlot(i int) {
	h.setTag(i, 0)
	clear(h.valAt(i))
	h.count--
	if i >= h.stashBase {
		h.stashLive--
	}
}
