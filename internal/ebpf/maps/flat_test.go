package maps

import (
	"bytes"
	"fmt"
)

// FlatHash is the hash core BucketHash replaced (PR 8): fixed key and
// value sizes, bounded capacity, and open addressing with tombstones
// over a power-of-two slot array. It shares no code with the bucketed
// core, which is what makes it a useful reference: the tests here
// replay identical op streams against both (TestBucketVsFlatRandomized)
// and fuzz it against the plain-Go model (FuzzHashModel) so the
// reference itself stays honest. It lives in a _test.go file so no
// product code can select it.
type FlatHash struct {
	keySize, valueSize int
	maxEntries         int

	// Open-addressed index: state 0=empty, 1=used, 2=tombstone.
	state []uint8
	keys  []byte // slot i key at i*keySize
	vals  []byte // slot i value at i*valueSize
	mask  uint64
	count int
}

// NewFlatHash creates a flat hash map. Capacity is rounded up so the
// table stays below ~85% occupancy at maxEntries.
func NewFlatHash(keySize, valueSize, maxEntries int) (*FlatHash, error) {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("%w: hash %dB keys, %dB values, %d entries",
			ErrConfig, keySize, valueSize, maxEntries)
	}
	slots := 8
	for slots < maxEntries*6/5+1 {
		slots <<= 1
	}
	if int64(slots)*int64(keySize) > maxMapBytes || int64(slots)*int64(valueSize) > maxMapBytes {
		return nil, fmt.Errorf("%w: hash of %d entries exceeds memlock bound", ErrConfig, maxEntries)
	}
	return &FlatHash{
		keySize: keySize, valueSize: valueSize, maxEntries: maxEntries,
		state: make([]uint8, slots),
		keys:  make([]byte, slots*keySize),
		vals:  make([]byte, slots*valueSize),
		mask:  uint64(slots - 1),
	}, nil
}

func (h *FlatHash) Type() Type     { return TypeHash }
func (h *FlatHash) KeySize() int   { return h.keySize }
func (h *FlatHash) ValueSize() int { return h.valueSize }

// Len returns the number of stored entries.
func (h *FlatHash) Len() int { return h.count }

// fnv1a is the flat table's slot hash; the bucketed core uses the wide
// SlotHash instead, so the two never agree on placement.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var x uint64 = offset
	for _, c := range b {
		x ^= uint64(c)
		x *= prime
	}
	return x
}

func (h *FlatHash) keyAt(i uint64) []byte {
	off := int(i) * h.keySize
	return h.keys[off : off+h.keySize]
}

func (h *FlatHash) valAt(i uint64) []byte {
	off := int(i) * h.valueSize
	return h.vals[off : off+h.valueSize : off+h.valueSize]
}

// find returns (slot, found). When not found, slot is the first
// insertable position (empty or tombstone) on the probe path, or ^0 if
// the table is somehow full.
func (h *FlatHash) find(key []byte) (uint64, bool) {
	i := fnv1a(key) & h.mask
	insert := ^uint64(0)
	for probes := uint64(0); probes <= h.mask; probes++ {
		switch h.state[i] {
		case 0:
			if insert == ^uint64(0) {
				insert = i
			}
			return insert, false
		case 1:
			if bytes.Equal(h.keyAt(i), key) {
				return i, true
			}
		case 2:
			if insert == ^uint64(0) {
				insert = i
			}
		}
		i = (i + 1) & h.mask
	}
	return insert, false
}

// Lookup returns a slice aliasing the stored value, or nil.
func (h *FlatHash) Lookup(key []byte) []byte {
	if len(key) != h.keySize {
		return nil
	}
	if i, ok := h.find(key); ok {
		return h.valAt(i)
	}
	return nil
}

// Update inserts or overwrites key.
func (h *FlatHash) Update(key, value []byte) error {
	if len(key) != h.keySize {
		return ErrKeySize
	}
	if len(value) != h.valueSize {
		return ErrValueSize
	}
	i, ok := h.find(key)
	if ok {
		copy(h.valAt(i), value)
		return nil
	}
	if h.count >= h.maxEntries || i == ^uint64(0) {
		return ErrNoSpace
	}
	h.state[i] = 1
	copy(h.keyAt(i), key)
	copy(h.valAt(i), value)
	h.count++
	return nil
}

// Delete removes key.
func (h *FlatHash) Delete(key []byte) error {
	if len(key) != h.keySize {
		return ErrKeySize
	}
	i, ok := h.find(key)
	if !ok {
		return ErrNotFound
	}
	h.state[i] = 2
	clear(h.valAt(i))
	h.count--
	return nil
}
