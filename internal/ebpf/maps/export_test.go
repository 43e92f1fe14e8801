package maps

import (
	"encoding/binary"
	"fmt"
)

// CheckInvariant verifies the LRU map's one-index structure: the
// recency list is a consistent doubly-linked chain of exactly Len()
// slots, every linked slot is live in the core and is the slot the core
// resolves its key to, and no live slot is left off the list.
func (l *LRUHash) CheckInvariant() error {
	c := l.core
	n, prev := 0, int32(-1)
	for i := l.head; i >= 0; i = l.next[i] {
		if n++; n > c.count {
			return fmt.Errorf("recency list is longer than Len() = %d", c.count)
		}
		if l.prev[i] != prev {
			return fmt.Errorf("slot %d: prev = %d, reached from %d", i, l.prev[i], prev)
		}
		if c.tagAt(int(i)) == 0 {
			return fmt.Errorf("slot %d is linked but empty in the core", i)
		}
		k := c.keyAt(int(i))
		if s := c.lookupSlot(SlotHash(k), k); s != int(i) {
			return fmt.Errorf("slot %d holds key %x, which the core resolves to slot %d", i, k, s)
		}
		prev = i
	}
	if prev != l.tail {
		return fmt.Errorf("list ends at slot %d, tail = %d", prev, l.tail)
	}
	live := 0
	for s := 0; s < c.nslots; s++ {
		if c.tagAt(s) != 0 {
			live++
		}
	}
	if n != c.count || live != n {
		return fmt.Errorf("%d slots linked, %d live, Len() = %d", n, live, c.count)
	}
	return nil
}

// SlotOf returns the core slot holding key, or -1.
func (l *LRUHash) SlotOf(key []byte) int { return l.find(key) }

// AddU32Lanes sums little-endian uint32 lanes: the second merge the
// merge-on-read tests fold with, beside the product's AddU64Lanes.
func AddU32Lanes(acc, lane []byte) {
	for off := 0; off+4 <= len(acc) && off+4 <= len(lane); off += 4 {
		s := binary.LittleEndian.Uint32(acc[off:]) + binary.LittleEndian.Uint32(lane[off:])
		binary.LittleEndian.PutUint32(acc[off:], s)
	}
}

// Len reports a hash map's stored entries, for the tests' model
// checks; no product path counts entries.
func (h *BucketHash) Len() int { return h.count }

// Len reports an LRU map's stored entries.
func (l *LRUHash) Len() int { return l.core.count }
