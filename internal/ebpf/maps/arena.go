package maps

import "encoding/binary"

// ArenaMap is implemented by map types whose values live in stable
// contiguous backing stores ("arenas"). The VM registers each arena as
// one memory region at map-attach time and turns lookups into pointers
// (arena, offset), so handing out a value pointer never allocates.
type ArenaMap interface {
	Map
	// ArenaCount returns how many arenas back this map.
	ArenaCount() int
	// Arena returns the i-th backing store. The returned slice must
	// remain valid and non-reallocated for the life of the map.
	Arena(i int) []byte
	// LookupArena resolves key to (arena index, byte offset) without
	// materializing a slice. ok is false when the key is absent.
	LookupArena(key []byte) (arena, off int, ok bool)
}

// Array arena support.

func (a *Array) ArenaCount() int    { return 1 }
func (a *Array) Arena(i int) []byte { return a.data }

// LookupArena resolves an array index key.
func (a *Array) LookupArena(key []byte) (int, int, bool) {
	if len(key) != 4 {
		return 0, 0, false
	}
	off, ok := a.Offset(binary.LittleEndian.Uint32(key))
	return 0, off, ok
}

// Offset returns the byte offset of element idx within Data(); ok is
// false when idx is out of range. It is LookupArena for a caller that
// already holds the index and the concrete type.
func (a *Array) Offset(idx uint32) (off int, ok bool) {
	if int(idx) >= a.n {
		return 0, false
	}
	return int(idx) * a.valueSize, true
}

// LRUHash arena support: the core stores all values in one contiguous
// arena at slot*ValueSize offsets, so the LRU layer forwards to it.

func (l *LRUHash) ArenaCount() int    { return l.core.ArenaCount() }
func (l *LRUHash) Arena(i int) []byte { return l.core.Arena(i) }

// LookupArena resolves key and refreshes its recency.
func (l *LRUHash) LookupArena(key []byte) (int, int, bool) {
	i := l.find(key)
	if i < 0 {
		return 0, 0, false
	}
	l.touch(i)
	return 0, i * l.core.valueSize, true
}
