// Package pktgen generates the synthetic traffic the benchmark harness
// replays: 64-byte packets with 5-tuple flow keys, configurable flow
// popularity (uniform or zipf), and per-NF operation mixes. It stands in
// for the paper's pktgen-DPDK sender (the substitution is documented in
// DESIGN.md): single-core NF throughput is CPU-bound, so replaying an
// in-memory trace exercises the same per-packet work.
package pktgen

import (
	"encoding/binary"
	"math/rand"

	"enetstl/internal/nf"
	"enetstl/internal/trace"
)

// Packet is one synthetic 64-byte packet.
type Packet [nf.PktSize]byte

// Config controls trace generation.
type Config struct {
	// Flows is the number of distinct flows (5-tuples).
	Flows int
	// Packets is the trace length.
	Packets int
	// ZipfS > 0 selects a zipf flow popularity with that skew
	// (typical heavy-tailed traffic uses 1.0-1.3); 0 means uniform.
	ZipfS float64
	// Seed makes the trace deterministic.
	Seed int64
}

// Trace is a generated packet sequence plus its flow table. Attack
// scenarios (GenerateAttack) additionally carry ground-truth metadata:
// per-packet labels and arrival ticks, plus the window list. Benign
// traces leave those fields nil; consumers treat nil Arrival as one
// tick per packet.
type Trace struct {
	Packets []Packet
	// FlowKeys holds the KeyLen-byte key of each flow.
	FlowKeys [][nf.KeyLen]byte
	// FlowOf maps each packet index to its flow index.
	FlowOf []int32

	// Labels marks each packet 0 = benign, 1 = attack (ground truth for
	// scenario traces; nil for benign traces). Parallel to Packets.
	Labels []uint8
	// Arrival is each packet's virtual arrival tick: a monotone
	// non-decreasing clock where one tick is one benign inter-arrival
	// gap. Attack bursts put several packets on the same tick, which is
	// how the overload guard's token bucket sees a rate spike without
	// any wall-clock dependence. Nil means packet i arrives at tick i.
	Arrival []uint64
	// Windows lists the attack windows in arrival-tick terms. Ticks
	// travel with packets through Shard, so window membership is
	// shard-count-invariant (packet-index ranges would not be).
	Windows []Window
	// Scenario names the generator that produced the trace ("" benign).
	Scenario string

	// pooled is the array set the slices above are views of, nil for
	// copies (Clone, Shard). See Release.
	pooled *arrays
}

// Window is one attack window: the arrival-tick range [Start, End).
type Window struct {
	Start, End uint64
}

// ArrivalOf returns packet i's arrival tick (i itself for benign
// traces, which carry no explicit arrival clock).
func (t *Trace) ArrivalOf(i int) uint64 {
	if t.Arrival == nil {
		return uint64(i)
	}
	return t.Arrival[i]
}

// putKey writes a 5-tuple into k in full: addresses, ports, proto TCP,
// zero padding to KeyLen.
func putKey(k *[nf.KeyLen]byte, src, dst uint32, sport uint16) {
	binary.LittleEndian.PutUint32(k[0:], src)
	binary.LittleEndian.PutUint32(k[4:], dst)
	binary.LittleEndian.PutUint16(k[8:], sport)
	binary.LittleEndian.PutUint16(k[10:], 443)
	binary.LittleEndian.PutUint32(k[12:], 6)
}

// srcPort is the source port of flow i, 1024 + i%60000, for callers
// that walk i upwards from 0: a wrapping counter instead of a division
// per key.
type srcPort uint16

func (p *srcPort) next() uint16 {
	port := 1024 + uint16(*p)
	if *p++; *p == 60000 {
		*p = 0
	}
	return port
}

// putFlowKeys synthesizes the deterministic 5-tuples of the benign
// flows in place: distinct 10.x sources and ports, a drawn destination.
func putFlowKeys(keys [][nf.KeyLen]byte, rng *rand.Rand) {
	var port srcPort
	for i := range keys {
		putKey(&keys[i], 0x0a000000|uint32(i), 0xac100000|uint32(rng.Int31()), port.next())
	}
}

// Generate builds a trace. Its arrays come from the pool; the caller
// owns the trace and may Release it once nothing reads it any more.
func Generate(cfg Config) *Trace {
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := arrayPool.Get().(*arrays)
	t := &Trace{
		Packets:  sized(&a.packets, cfg.Packets),
		FlowKeys: sized(&a.flowKeys, cfg.Flows),
		FlowOf:   sized(&a.flowOf, cfg.Packets),
		pooled:   a,
	}
	putFlowKeys(t.FlowKeys, rng)
	draw := a.flowDraw(cfg, rng)
	for i := range t.Packets {
		f := draw.next()
		t.FlowOf[i] = int32(f)
		t.Packets[i].setKey(&t.FlowKeys[f])
	}
	return t
}

// FlowTable returns the flow table Generate would build for flows and
// seed — the keys are drawn before any packet, so they depend on
// nothing else — in a fresh array the caller keeps: nothing is pooled
// and no packet is generated.
func FlowTable(flows int, seed int64) [][nf.KeyLen]byte {
	keys := make([][nf.KeyLen]byte, max(flows, 1))
	putFlowKeys(keys, rand.New(rand.NewSource(seed)))
	return keys
}

// setKey writes the whole packet: the flow key, then zeros.
func (p *Packet) setKey(k *[nf.KeyLen]byte) {
	*p = Packet{}
	copy(p[nf.OffKey:], k[:])
}

// FlowHash hashes a flow key as NIC RSS hashes the 5-tuple: FNV-1a
// over the key bytes with a murmur-style avalanche finisher so the low
// bits (which shard selection reduces mod N) mix the whole tuple. It
// is the single flow-keying function in the tree — the RSS sharder
// partitions traces with it and the op-mix helpers derive per-flow
// arguments from it.
func FlowHash(key []byte) uint32 {
	// The implementation lives in internal/trace so the VM (which cannot
	// import pktgen) computes identical flow hashes: /trace flow filters,
	// RSS sharding, and op-mix argument keying all agree on one function.
	return trace.FlowHash(key)
}

// ShardOf maps a flow key to one of n RSS shards.
func ShardOf(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return int(FlowHash(key) % uint32(n))
}

// Shard hash-partitions the trace into n sub-traces by flow 5-tuple,
// as NIC RSS spreads flows across receive queues: all packets of one
// flow land in the same shard, in their original relative order, and
// the flow→shard assignment depends only on the flow key. Each
// sub-trace keeps the full flow table (FlowKeys, which FlowOf indexes)
// so per-shard NF construction preloads identical tables regardless of
// shard count — the per-CPU replica model. Packets are deep-copied;
// shards are safe to mutate independently.
func (t *Trace) Shard(n int) []*Trace {
	if n <= 1 {
		return []*Trace{t.Clone()}
	}
	shards := make([]*Trace, n)
	for s := range shards {
		shards[s] = &Trace{
			FlowKeys: append([][nf.KeyLen]byte(nil), t.FlowKeys...),
			Windows:  append([]Window(nil), t.Windows...),
			Scenario: t.Scenario,
		}
	}
	for i := range t.Packets {
		s := shards[ShardOf(t.Packets[i].Key(), n)]
		s.Packets = append(s.Packets, t.Packets[i])
		s.FlowOf = append(s.FlowOf, t.FlowOf[i])
		if t.Labels != nil {
			s.Labels = append(s.Labels, t.Labels[i])
		}
		if t.Arrival != nil {
			s.Arrival = append(s.Arrival, t.Arrival[i])
		}
	}
	return shards
}

// Clone deep-copies the trace. Differential replay needs bit-identical
// input streams per flavour, and op-mix application mutates packets in
// place, so each instance under comparison replays its own clone.
func (t *Trace) Clone() *Trace {
	c := &Trace{
		Packets:  make([]Packet, len(t.Packets)),
		FlowKeys: make([][nf.KeyLen]byte, len(t.FlowKeys)),
		FlowOf:   make([]int32, len(t.FlowOf)),
		Scenario: t.Scenario,
	}
	copy(c.Packets, t.Packets)
	copy(c.FlowKeys, t.FlowKeys)
	copy(c.FlowOf, t.FlowOf)
	if t.Labels != nil {
		c.Labels = append([]uint8(nil), t.Labels...)
	}
	if t.Arrival != nil {
		c.Arrival = append([]uint64(nil), t.Arrival...)
	}
	if t.Windows != nil {
		c.Windows = append([]Window(nil), t.Windows...)
	}
	return c
}

// SetOp writes the operation selector of packet p.
func (p *Packet) SetOp(op uint32) {
	binary.LittleEndian.PutUint32(p[nf.OffOp:], op)
}

// SetArg writes the u32 argument field.
func (p *Packet) SetArg(a uint32) {
	binary.LittleEndian.PutUint32(p[nf.OffArg:], a)
}

// SetTS writes the u64 timestamp/deadline field.
func (p *Packet) SetTS(ts uint64) {
	binary.LittleEndian.PutUint64(p[nf.OffTS:], ts)
}

// Key returns the packet's flow key bytes.
func (p *Packet) Key() []byte { return p[nf.OffKey : nf.OffKey+nf.KeyLen] }

// ApplyOpMix assigns operation codes round-robin-weighted by ratios
// (e.g. {1,1} alternates two ops), deterministically.
func (t *Trace) ApplyOpMix(ops []uint32, weights []int) {
	if len(ops) != len(weights) || len(ops) == 0 {
		panic("pktgen: ops and weights must align")
	}
	var pattern []uint32
	for i, op := range ops {
		for j := 0; j < weights[i]; j++ {
			pattern = append(pattern, op)
		}
	}
	for i := range t.Packets {
		t.Packets[i].SetOp(pattern[i%len(pattern)])
	}
}

// ApplyArgKeys derives every packet's u32 argument (priority, index...)
// from its flow key via FlowHash, reduced mod bound when bound > 0.
// Flow-derived args are stable under resharding: a packet carries the
// same argument whether the trace is replayed whole or hash-partitioned
// across shards, which per-index keying cannot guarantee.
func (t *Trace) ApplyArgKeys(bound uint32) {
	for i := range t.Packets {
		a := FlowHash(t.Packets[i].Key())
		if bound > 0 {
			a %= bound
		}
		t.Packets[i].SetArg(a)
	}
}
