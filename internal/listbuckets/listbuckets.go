// Package listbuckets implements eNetSTL's list-buckets data structure
// (paper §4.3, "Data structure: list-buckets"): an array of FIFO/LIFO
// queues over one slab allocator, addressed by bucket index through a
// unified API. It avoids the two costs of eBPF's native linked lists:
// per-operation spin locks (list-buckets instances are per-CPU and
// lock-free) and one bpf_map_lookup_elem per list (all buckets live in
// one object).
package listbuckets

import (
	"errors"
	"fmt"
)

const nilIdx = -1

// ErrConfig reports an invalid list-buckets configuration.
var ErrConfig = errors.New("listbuckets: invalid configuration")

// ListBuckets is a set of n element queues with fixed-size elements,
// backed by a slab with a free list so steady-state operation does not
// allocate.
type ListBuckets struct {
	elemSize int
	heads    []int32
	tails    []int32
	lens     []int32

	next []int32
	data []byte
	free int32
	used int
}

// Must unwraps a New result, panicking on error; for call sites with
// static, pre-validated sizes.
func Must(lb *ListBuckets, err error) *ListBuckets {
	if err != nil {
		panic(err)
	}
	return lb
}

// New creates nBuckets queues holding elemSize-byte elements, with
// capacity for cap elements across all buckets before the slab grows.
func New(nBuckets, elemSize, capacity int) (*ListBuckets, error) {
	if nBuckets <= 0 || elemSize <= 0 {
		return nil, fmt.Errorf("%w: %d buckets of %d-byte elements", ErrConfig, nBuckets, elemSize)
	}
	if capacity < 1 {
		capacity = 1
	}
	lb := &ListBuckets{
		elemSize: elemSize,
		heads:    make([]int32, nBuckets),
		tails:    make([]int32, nBuckets),
		lens:     make([]int32, nBuckets),
		free:     nilIdx,
	}
	for i := range lb.heads {
		lb.heads[i] = nilIdx
		lb.tails[i] = nilIdx
	}
	lb.grow(capacity)
	return lb, nil
}

// CheckInvariants walks every bucket chain and audits the structure:
// chain lengths must match the per-bucket counters and sum to the used
// count, tails must be reachable, and no chain may cycle. The
// conformance grid runs it (through timewheel) after every replay.
func (lb *ListBuckets) CheckInvariants() error {
	total := 0
	for i := range lb.heads {
		n := 0
		last := int32(nilIdx)
		for idx := lb.heads[i]; idx != nilIdx; idx = lb.next[idx] {
			if idx < 0 || int(idx) >= len(lb.next) {
				return fmt.Errorf("listbuckets: bucket %d links out of range (%d)", i, idx)
			}
			last = idx
			n++
			if n > lb.used {
				return fmt.Errorf("listbuckets: bucket %d chain cycles", i)
			}
		}
		if int32(n) != lb.lens[i] {
			return fmt.Errorf("listbuckets: bucket %d walked %d elements, counter says %d", i, n, lb.lens[i])
		}
		if lb.tails[i] != last {
			return fmt.Errorf("listbuckets: bucket %d tail %d unreachable (last is %d)", i, lb.tails[i], last)
		}
		total += n
	}
	if total != lb.used {
		return fmt.Errorf("listbuckets: chains hold %d elements, used counter says %d", total, lb.used)
	}
	return nil
}

// NumBuckets returns the number of queues.
func (lb *ListBuckets) NumBuckets() int { return len(lb.heads) }

// ElemSize returns the element payload size in bytes.
func (lb *ListBuckets) ElemSize() int { return lb.elemSize }

func (lb *ListBuckets) grow(n int) {
	base := len(lb.next)
	for i := 0; i < n; i++ {
		lb.next = append(lb.next, lb.free)
		lb.free = int32(base + i)
	}
	lb.data = append(lb.data, make([]byte, n*lb.elemSize)...)
}

func (lb *ListBuckets) alloc() int32 {
	if lb.free == nilIdx {
		lb.grow(len(lb.next) + 1)
	}
	idx := lb.free
	lb.free = lb.next[idx]
	lb.used++
	return idx
}

func (lb *ListBuckets) release(idx int32) {
	lb.next[idx] = lb.free
	lb.free = idx
	lb.used--
}

func (lb *ListBuckets) slot(idx int32) []byte {
	off := int(idx) * lb.elemSize
	return lb.data[off : off+lb.elemSize]
}

// PushBack appends data to the back of bucket i (FIFO insert).
func (lb *ListBuckets) PushBack(i int, data []byte) {
	idx := lb.alloc()
	copy(lb.slot(idx), data)
	lb.next[idx] = nilIdx
	if lb.tails[i] == nilIdx {
		lb.heads[i] = idx
	} else {
		lb.next[lb.tails[i]] = idx
	}
	lb.tails[i] = idx
	lb.lens[i]++
}

// PopFront removes the first element of bucket i into out, reporting
// whether an element was present. out may be nil to discard.
func (lb *ListBuckets) PopFront(i int, out []byte) bool {
	idx := lb.heads[i]
	if idx == nilIdx {
		return false
	}
	if out != nil {
		copy(out, lb.slot(idx))
	}
	lb.heads[i] = lb.next[idx]
	if lb.heads[i] == nilIdx {
		lb.tails[i] = nilIdx
	}
	lb.lens[i]--
	lb.release(idx)
	return true
}
