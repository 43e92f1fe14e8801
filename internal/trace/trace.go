// Package trace is the runtime's flight recorder: a BPF-ringbuf-style
// MPSC ring of structured events (packet-in, verdict, map op+miss,
// helper/kfunc call) that the VM emits into, and that nfd's
// GET /modules/{id}/trace and nfrun -trace stream back out as JSONL.
//
// Design points, mirroring the kernel's BPF ring buffer:
//
//   - fixed capacity, power-of-two slots, lock-free multi-producer
//     reserve (Vyukov bounded-queue slot sequencing); the capacity is a
//     ceiling, not an allocation: slots come in 256-slot chunks
//     installed as producers first reach them;
//   - overrun drops the NEW event and counts it (bpf_ringbuf_reserve
//     returning NULL), so a slow or absent consumer can never stall a
//     producer — the datapath always wins;
//   - single consumer (Drain); the daemon's module or nfrun owns it;
//   - seeded head-sampling at packet granularity: the sample decision is
//     a pure function of (seed, packet arrival index), so the same seed
//     replayed over the same trace records the same event set;
//   - zero-cost when disabled: a VM without a recorder attached pays one
//     nil check per packet, exactly like bpf_stats_enabled=0.
//
// Sharded replays give every shard its own ring (per-CPU ringbuf idiom)
// and merge post-run in timestamp order with MergeByTime.
package trace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"enetstl/internal/telemetry"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds.
const (
	KindPacketIn Kind = iota + 1 // a sampled packet entered a program
	KindVerdict                  // the program returned (verdict + latency)
	KindMapOp                    // a map helper ran (op name, miss flag)
	KindHelper                   // a helper call completed
	KindKfunc                    // a kfunc call completed
)

var kindNames = [...]string{
	KindPacketIn: "packet_in",
	KindVerdict:  "verdict",
	KindMapOp:    "map_op",
	KindHelper:   "helper",
	KindKfunc:    "kfunc",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString resolves a kind name as used in /trace filters; ok is
// false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its name, the form /trace emits.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: bad kind %q", b)
	}
	kk, ok := KindFromString(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("trace: unknown kind %q", b)
	}
	*k = kk
	return nil
}

// Event is one flight-recorder record. Which fields are meaningful
// depends on Kind; unused fields stay zero and are omitted from JSON.
type Event struct {
	// Seq is the recorder-assigned emission sequence (per recorder).
	Seq uint64 `json:"seq"`
	// TS is nanoseconds since the process trace epoch (monotonic), the
	// merge key for per-shard rings.
	TS uint64 `json:"ts"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Shard is the emitting shard's id (0 for unsharded replay).
	Shard int32 `json:"shard"`
	// Pkt is the packet's arrival index at the recorder; every event a
	// packet generates carries the same Pkt, reconstructing "why did
	// this packet get its verdict".
	Pkt uint64 `json:"pkt"`
	// Flow is the RSS FlowHash of the packet's 5-tuple (filter key).
	Flow uint32 `json:"flow"`
	// Name is the program (packet_in/verdict), helper, kfunc or map
	// type.
	Name string `json:"name,omitempty"`
	// Op is the map operation for map_op events (lookup/update/delete).
	Op string `json:"op,omitempty"`
	// Miss marks a map lookup that found no element.
	Miss bool `json:"miss,omitempty"`
	// Val is the verdict (verdict events), R0 (helper/kfunc events),
	// or packet length (packet_in).
	Val uint64 `json:"val,omitempty"`
	// LatNs is the packet's in-VM processing time on verdict events.
	LatNs uint64 `json:"lat_ns,omitempty"`
	// Err carries the processing error on verdict events, when any.
	Err string `json:"err,omitempty"`
}

// FlowHash hashes a flow key as NIC RSS hashes the 5-tuple: FNV-1a over
// the key bytes with a murmur-style avalanche finisher so the low bits
// (which shard selection reduces mod N) mix the whole tuple. It is THE
// flow-keying function of the tree — pktgen delegates here, so /trace
// flow filters, RSS sharding, and op-mix argument keying all agree.
func FlowHash(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// flowKeyLen mirrors nf.KeyLen (the package cannot import nf: nf
// imports vm imports trace).
const flowKeyLen = 16

// FlowOf extracts the flow hash from a packet context: the first
// KeyLen bytes are the 5-tuple in the synthetic packet layout. Shorter
// contexts hash what is there.
func FlowOf(ctx []byte) uint32 {
	if len(ctx) > flowKeyLen {
		ctx = ctx[:flowKeyLen]
	}
	return FlowHash(ctx)
}

// epoch anchors event timestamps: monotonic, shared by every recorder
// in the process, so per-shard rings merge on one time base.
var epoch = time.Now()

// Now returns the current trace timestamp (ns since the trace epoch).
func Now() uint64 { return uint64(time.Since(epoch)) }

// splitmix64 drives the head-sampling decision stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Config shapes a Recorder.
type Config struct {
	// Capacity is the ring size in events, rounded up to a power of two;
	// <= 0 selects the 65536-event default.
	Capacity int
	// SampleRate is the head-sampled fraction of packets in (0, 1];
	// values <= 0 or >= 1 sample every packet. The decision for packet n
	// is a pure function of (Seed, n).
	SampleRate float64
	// Seed feeds the deterministic sampling stream.
	Seed uint64
	// Shard is stamped into every emitted event.
	Shard int32
}

// ForShard derives shard s's per-ring config: same capacity and rate,
// a shard-decorrelated sampling seed, and the shard id stamp.
func (c Config) ForShard(s int) Config {
	c.Seed = splitmix64(c.Seed ^ (uint64(s) + 0x5bd1e995))
	c.Shard = int32(s)
	return c
}

// slot is one ring cell. seq follows the Vyukov bounded-queue protocol:
// it holds the position the slot is ready for (== pos: free to write at
// pos; == pos+1: holds the event written at pos).
type slot struct {
	seq atomic.Uint64
	ev  Event
}

// chunkSlots sizes a chunk: 256 slots of 120 B, 30 KB in one
// allocation. A power of two, so chunks tile every ring capacity.
const chunkSlots = 256

// chunk k holds ring indices [k*chunkSlots, (k+1)*chunkSlots). A ring
// smaller than a chunk uses the first Capacity slots of its only one.
type chunk [chunkSlots]slot

// Recorder is one flight-recorder ring: any number of producers, one
// consumer. The zero value is not usable; construct with NewRecorder.
//
// The ring's memory follows the events written, not its capacity: the
// slots live in chunks that the first producer to reach one installs,
// so a ring that never records more than a few hundred events costs a
// chunk or two however large its capacity.
type Recorder struct {
	chunks []atomic.Pointer[chunk]
	mask   uint64

	head atomic.Uint64 // next reserve position
	tail atomic.Uint64 // next consume position (single consumer)

	emitted atomic.Uint64 // events successfully written
	drops   atomic.Uint64 // events rejected on a full ring
	pkts    atomic.Uint64 // packets offered to SamplePacket
	sampled atomic.Uint64 // packets head-sampled in

	seq atomic.Uint64 // emission sequence

	seed      uint64
	threshold uint64 // sample iff splitmix64(seed^n) < threshold
	shard     int32
}

// DefaultCapacity is the ring size used when Config.Capacity <= 0.
const DefaultCapacity = 1 << 16

// NewRecorder builds a recorder from cfg.
func NewRecorder(cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	// Round up to a power of two (minimum 2 so mask math holds).
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Recorder{
		chunks: make([]atomic.Pointer[chunk], (n+chunkSlots-1)/chunkSlots),
		mask:   uint64(n - 1),
		seed:   cfg.Seed,
		shard:  cfg.Shard,
	}
	if cfg.SampleRate > 0 && cfg.SampleRate < 1 {
		r.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	} else {
		r.threshold = ^uint64(0)
	}
	return r
}

// Capacity returns the ring capacity in events.
func (r *Recorder) Capacity() int { return int(r.mask + 1) }

// cell returns the slot of ring position pos, nil while no producer has
// reached its chunk.
func (r *Recorder) cell(pos uint64) *slot {
	i := pos & r.mask
	if c := r.chunks[i/chunkSlots].Load(); c != nil {
		return &c[i%chunkSlots]
	}
	return nil
}

// install puts in place the chunk holding ring position pos and returns
// pos's slot. A chunk is first reached in the ring's first lap — the
// head passes a position only by writing its slot — so a new chunk's
// slots are ready for their first-lap positions. Producers racing to
// install one chunk each build one; the first CAS wins and the others'
// are garbage.
func (r *Recorder) install(pos uint64) *slot {
	i := pos & r.mask
	c := new(chunk)
	base := i &^ (chunkSlots - 1)
	for j := range min(chunkSlots, r.mask+1) {
		c[j].seq.Store(base + j)
	}
	if p := &r.chunks[i/chunkSlots]; !p.CompareAndSwap(nil, c) {
		c = p.Load()
	}
	return &c[i%chunkSlots]
}

// SamplePacket draws the head-sampling decision for the next packet and
// returns its arrival index. The decision is a pure function of the
// recorder seed and that index, so identical replays sample identical
// packet sets. Producers sharing a recorder share the arrival sequence.
func (r *Recorder) SamplePacket() (pkt uint64, ok bool) {
	n := r.pkts.Add(1) - 1
	if r.threshold != ^uint64(0) && splitmix64(r.seed^n) >= r.threshold {
		return n, false
	}
	r.sampled.Add(1)
	return n, true
}

// Emit writes ev into the ring, assigning Seq, TS (when zero), and the
// recorder's shard id. It reports false — and counts a drop — when the
// ring is full: flight-recorder producers never block.
func (r *Recorder) Emit(ev Event) bool {
	pos := r.head.Load()
	for {
		s := r.cell(pos)
		if s == nil {
			s = r.install(pos)
		}
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				ev.Seq = r.seq.Add(1) - 1
				if ev.TS == 0 {
					ev.TS = Now()
				}
				ev.Shard = r.shard
				s.ev = ev
				s.seq.Store(pos + 1)
				r.emitted.Add(1)
				return true
			}
			pos = r.head.Load()
		case d < 0:
			// The slot still holds an unconsumed event one lap behind:
			// the ring is full. Drop the new event, BPF-ringbuf style.
			r.drops.Add(1)
			return false
		default:
			pos = r.head.Load()
		}
	}
}

// Drain consumes up to max buffered events (all of them when max <= 0)
// in emission order. Only one goroutine may consume.
func (r *Recorder) Drain(max int) []Event {
	if n := r.Capacity(); max <= 0 || max > n {
		max = n
	}
	var out []Event
	for len(out) < max {
		pos := r.tail.Load()
		s := r.cell(pos)
		if s == nil || s.seq.Load() != pos+1 {
			break // empty (or the producer has reserved but not committed)
		}
		ev := s.ev
		s.seq.Store(pos + r.mask + 1)
		r.tail.Store(pos + 1)
		out = append(out, ev)
	}
	return out
}

// Emitted returns how many events were written successfully.
func (r *Recorder) Emitted() uint64 { return r.emitted.Load() }

// Drops returns how many events were rejected on a full ring.
func (r *Recorder) Drops() uint64 { return r.drops.Load() }

// Packets returns how many packets were offered for sampling.
func (r *Recorder) Packets() uint64 { return r.pkts.Load() }

// SampledPackets returns how many packets the head sampler admitted.
func (r *Recorder) SampledPackets() uint64 { return r.sampled.Load() }

// Publish exports the recorder's counters into reg.
func (r *Recorder) Publish(reg *telemetry.Registry) {
	shard := telemetry.L("shard", fmt.Sprint(r.shard))
	reg.SetHelp("trace_events_emitted_total", "flight-recorder events written")
	reg.SetHelp("trace_events_dropped_total", "flight-recorder events dropped on ring overrun")
	reg.SetHelp("trace_packets_total", "packets offered to the head sampler")
	reg.SetHelp("trace_packets_sampled_total", "packets admitted by the head sampler")
	reg.Counter("trace_events_emitted_total", shard).Add(r.Emitted())
	reg.Counter("trace_events_dropped_total", shard).Add(r.Drops())
	reg.Counter("trace_packets_total", shard).Add(r.Packets())
	reg.Counter("trace_packets_sampled_total", shard).Add(r.SampledPackets())
}

// MergeByTime merges per-shard event slices into one stream ordered by
// (TS, Shard, Seq) — the tiebreak keeps the merge deterministic when
// two shards emit within one clock tick.
func MergeByTime(chunks ...[]Event) []Event {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]Event, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}
