// Package maps implements the BPF map types used by the simulated eBPF
// runtime: array, hash, LRU hash, and the per-CPU array and LRU hash,
// whose copies are handed out one per CPU. Map values are exposed as
// byte slices aliasing internal storage so the VM can hand out
// pointers into them, exactly as bpf_map_lookup_elem does.
//
// One hash core backs every hash-shaped map: the cache-line-bucketed
// wide-compare BucketHash. The open-addressed table it replaced
// survives only as the reference model in this package's tests.
package maps

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type enumerates the supported map types.
type Type int

// Map types.
const (
	TypeArray Type = iota
	TypeHash
	TypeLRUHash
)

func (t Type) String() string {
	switch t {
	case TypeArray:
		return "array"
	case TypeHash:
		return "hash"
	case TypeLRUHash:
		return "lru_hash"
	}
	return fmt.Sprintf("maptype(%d)", int(t))
}

// Errors returned by map operations.
var (
	ErrKeySize   = errors.New("bpf map: wrong key size")
	ErrValueSize = errors.New("bpf map: wrong value size")
	ErrNoSpace   = errors.New("bpf map: max entries reached (E2BIG)")
	ErrNotFound  = errors.New("bpf map: no such element (ENOENT)")
	ErrConfig    = errors.New("bpf map: invalid configuration (EINVAL)")
)

// maxMapBytes bounds a single map's backing store, like the kernel's
// memlock accounting: absurd size requests become errors, not OOM.
const maxMapBytes = 1 << 31

// Must unwraps a map constructor result, panicking on error. For call
// sites whose sizes are static or already validated (tests, NFs that
// run Config.validate first).
func Must[M any](m M, err error) M {
	if err != nil {
		panic(err)
	}
	return m
}

// Map is the interface the VM and verifier consume. Lookup returns a
// slice aliasing the stored value (writes through it persist), or nil if
// the key is absent.
type Map interface {
	Type() Type
	KeySize() int
	ValueSize() int
	Lookup(key []byte) []byte
	Update(key, value []byte) error
	Delete(key []byte) error
}

// --- Array ---

// Array is a fixed-size array map indexed by a 4-byte little-endian key.
type Array struct {
	valueSize int
	n         int
	data      []byte
}

// NewArray creates an array map with n elements of valueSize bytes.
func NewArray(valueSize, n int) (*Array, error) {
	if valueSize <= 0 || n <= 0 {
		return nil, fmt.Errorf("%w: array %d x %d bytes", ErrConfig, n, valueSize)
	}
	if int64(valueSize)*int64(n) > maxMapBytes {
		return nil, fmt.Errorf("%w: array %d x %d bytes exceeds memlock bound", ErrConfig, n, valueSize)
	}
	return &Array{valueSize: valueSize, n: n, data: make([]byte, valueSize*n)}, nil
}

func (a *Array) Type() Type      { return TypeArray }
func (a *Array) KeySize() int    { return 4 }
func (a *Array) ValueSize() int  { return a.valueSize }
func (a *Array) MaxEntries() int { return a.n }

// Lookup returns the element at the index encoded in key, or nil if the
// index is out of range. Array elements always exist.
func (a *Array) Lookup(key []byte) []byte {
	if len(key) != 4 {
		return nil
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx >= a.n {
		return nil
	}
	off := idx * a.valueSize
	return a.data[off : off+a.valueSize : off+a.valueSize]
}

// Update overwrites the element at the given index.
func (a *Array) Update(key, value []byte) error {
	if len(key) != 4 {
		return ErrKeySize
	}
	if len(value) != a.valueSize {
		return ErrValueSize
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx >= a.n {
		// An out-of-range index addresses no element: ENOENT, as
		// bpf_map_update_elem returns for array maps.
		return ErrNotFound
	}
	copy(a.data[idx*a.valueSize:], value)
	return nil
}

// Delete zeroes the element; array map entries cannot be removed.
func (a *Array) Delete(key []byte) error {
	if len(key) != 4 {
		return ErrKeySize
	}
	v := a.Lookup(key)
	if v == nil {
		return ErrNotFound
	}
	clear(v)
	return nil
}

// Data exposes the whole backing store; used by tests and native-side
// setup code that preloads tables.
func (a *Array) Data() []byte { return a.data }

// --- PerCPUArray ---

// PerCPUArray is an array map with one private copy per CPU, modeling
// BPF_MAP_TYPE_PERCPU_ARRAY: a program attaches one copy (CPU), so its
// lookups alias that copy only, and control-plane code reads every
// copy (CPUData) to aggregate.
type PerCPUArray struct {
	per []*Array
}

// NewPerCPUArray creates a per-CPU array with ncpu private copies.
func NewPerCPUArray(valueSize, n, ncpu int) (*PerCPUArray, error) {
	if ncpu <= 0 || ncpu > 4096 {
		return nil, fmt.Errorf("%w: percpu_array over %d cpus", ErrConfig, ncpu)
	}
	p := &PerCPUArray{per: make([]*Array, ncpu)}
	for i := range p.per {
		a, err := NewArray(valueSize, n)
		if err != nil {
			return nil, err
		}
		p.per[i] = a
	}
	return p, nil
}

// NumCPU returns the number of per-CPU copies.
func (p *PerCPUArray) NumCPU() int { return len(p.per) }

// CPUData returns the backing store of one CPU's copy (for aggregation
// by control-plane code, mirroring bpf_map_lookup_elem from user space).
func (p *PerCPUArray) CPUData(cpu int) []byte { return p.per[cpu].Data() }

// CPU returns the i-th private copy itself, for the shard that owns
// that CPU.
func (p *PerCPUArray) CPU(i int) *Array { return p.per[i] }

func (p *PerCPUArray) ValueSize() int  { return p.per[0].ValueSize() }
func (p *PerCPUArray) MaxEntries() int { return p.per[0].MaxEntries() }

// --- Hash ---

// NewHash creates a hash map (a BucketHash).
func NewHash(keySize, valueSize, maxEntries int) (*BucketHash, error) {
	return NewBucketHash(keySize, valueSize, maxEntries)
}

// --- LRUHash ---

// LRUHash is a hash map that evicts the least recently used entry when
// full. Like BPF_MAP_TYPE_LRU_HASH it is one hash table with the
// recency list threaded through its nodes: the bucketed core is the
// only index, and prev/next link its slots (head = most recent). Slot
// indices stay valid for the life of an entry — the core never moves
// one — so an entry is found by one probe of the core and a victim is
// evicted by slot, without its key.
type LRUHash struct {
	core       *BucketHash
	prev, next []int32
	head, tail int32

	// Evictions counts LRU victims removed to make room for inserts;
	// InsertFails counts inserts the table still refused. Both were
	// silent before the churn scenarios made them load-bearing: the
	// conntrack NF exports them through telemetry and the overload
	// guard's watermark probes read them.
	Evictions   uint64
	InsertFails uint64
}

// NewLRUHash creates an LRU hash map.
func NewLRUHash(keySize, valueSize, maxEntries int) (*LRUHash, error) {
	core, err := NewBucketHash(keySize, valueSize, maxEntries)
	if err != nil {
		return nil, err
	}
	return &LRUHash{
		core: core,
		prev: make([]int32, core.nslots),
		next: make([]int32, core.nslots),
		head: -1,
		tail: -1,
	}, nil
}

func (l *LRUHash) Type() Type      { return TypeLRUHash }
func (l *LRUHash) KeySize() int    { return l.core.keySize }
func (l *LRUHash) ValueSize() int  { return l.core.valueSize }
func (l *LRUHash) MaxEntries() int { return l.core.maxEntries }

func (l *LRUHash) unlink(i int32) {
	if l.prev[i] >= 0 {
		l.next[l.prev[i]] = l.next[i]
	} else {
		l.head = l.next[i]
	}
	if l.next[i] >= 0 {
		l.prev[l.next[i]] = l.prev[i]
	} else {
		l.tail = l.prev[i]
	}
}

func (l *LRUHash) pushFront(i int32) {
	l.prev[i] = -1
	l.next[i] = l.head
	if l.head >= 0 {
		l.prev[l.head] = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

// find returns key's slot in the core, or -1 (also for a key of the
// wrong size, which no slot can hold).
func (l *LRUHash) find(key []byte) int {
	if len(key) != l.core.keySize {
		return -1
	}
	return l.core.lookupSlot(SlotHash(key), key)
}

// touch marks slot i most recently used.
func (l *LRUHash) touch(i int) {
	l.unlink(int32(i))
	l.pushFront(int32(i))
}

// evict removes the least recently used entry; the list must not be
// empty.
func (l *LRUHash) evict() {
	victim := l.tail
	l.unlink(victim)
	l.core.removeSlot(int(victim))
	l.Evictions++
}

// Lookup returns the value and marks the entry most recently used.
func (l *LRUHash) Lookup(key []byte) []byte {
	i := l.find(key)
	if i < 0 {
		return nil
	}
	l.touch(i)
	return l.core.valAt(i)
}

// Peek returns the value without refreshing its recency — the
// control-plane read path (merge-on-read aggregation, tests) that must
// not perturb the eviction order the datapath sees.
func (l *LRUHash) Peek(key []byte) []byte {
	i := l.find(key)
	if i < 0 {
		return nil
	}
	return l.core.valAt(i)
}

// Update inserts or refreshes key, evicting the LRU entry when full:
// one hash, one probe for presence, one placement.
func (l *LRUHash) Update(key, value []byte) error {
	if len(key) != l.core.keySize {
		return ErrKeySize
	}
	if len(value) != l.core.valueSize {
		return ErrValueSize
	}
	hv := SlotHash(key)
	if i := l.core.lookupSlot(hv, key); i >= 0 {
		copy(l.core.valAt(i), value)
		l.touch(i)
		return nil
	}
	if l.core.count >= l.core.maxEntries {
		l.evict()
	}
	i, err := l.core.insertAbsent(hv, key, value)
	if err != nil {
		l.InsertFails++
		return err
	}
	l.pushFront(int32(i))
	return nil
}

// EvictOldest removes up to n least-recently-used entries, returning
// how many were evicted. The overload guard's aggressive-eviction
// degrade policy batch-frees headroom with it so overloaded insert
// paths stop paying one eviction per packet.
func (l *LRUHash) EvictOldest(n int) int {
	evicted := 0
	for ; evicted < n && l.tail >= 0; evicted++ {
		l.evict()
	}
	return evicted
}

// Delete removes key.
func (l *LRUHash) Delete(key []byte) error {
	if len(key) != l.core.keySize {
		return ErrKeySize
	}
	i := l.core.lookupSlot(SlotHash(key), key)
	if i < 0 {
		return ErrNotFound
	}
	l.unlink(int32(i))
	l.core.removeSlot(i)
	return nil
}
