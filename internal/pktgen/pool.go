package pktgen

import (
	"math/rand"
	"sync"

	"enetstl/internal/nf"
)

// arrays is one set of trace backing arrays: what a batch would
// otherwise allocate and zero afresh (336 KB for 4096 packets), as a
// driver recycles its RX buffers instead of allocating them. Generate,
// GenerateAttack and NewTrace draw a set from arrayPool; Release puts
// it back. The set owns its arrays throughout — the Trace's slices are
// views of them.
type arrays struct {
	packets  []Packet
	flowKeys [][nf.KeyLen]byte
	flowOf   []int32
	labels   []uint8
	arrival  []uint64
	// The zipf sampler's tables, built for skew zipfS over len(cdf)
	// flows (zipfS == 0: not built yet).
	cdf   []float64
	guide []int32
	zipfS float64
}

var arrayPool = sync.Pool{New: func() any { return new(arrays) }}

// sized returns *s cut or regrown to n elements. The contents are
// whatever the last trace left: every user writes each element in full.
func sized[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// NewTrace returns a trace of n packets with no flow table, for callers
// that bring their own packet bytes (raw replay). The packets come from
// the pool with unspecified contents: write every one in full.
func NewTrace(n int) *Trace {
	a := arrayPool.Get().(*arrays)
	return &Trace{Packets: sized(&a.packets, n), pooled: a}
}

// Release hands the trace's arrays back for the next batch and empties
// the trace. The caller must be the trace's owner and nothing may still
// hold one of its slices: the next Generate overwrites them. Traces that
// own no pooled arrays (Clone and Shard copies) and traces that are
// never released are ordinary garbage.
func (t *Trace) Release() {
	a := t.pooled
	*t = Trace{}
	if a != nil {
		arrayPool.Put(a)
	}
}

// flowDraw picks the benign flow of each packet: uniform, or zipf when
// the config asks for skew. A zipf pick consumes exactly one Float64.
type flowDraw struct {
	rng   *rand.Rand
	flows int
	z     zipf // z.cdf == nil: uniform
}

func (a *arrays) flowDraw(cfg Config, rng *rand.Rand) flowDraw {
	d := flowDraw{rng: rng, flows: cfg.Flows}
	if cfg.ZipfS > 0 {
		// rand.Zipf needs s > 1, so 1.001 is as flat as the law has ever got here.
		s := max(cfg.ZipfS, 1.001)
		if s == a.zipfS && len(a.cdf) == cfg.Flows {
			// The same law over the same flows as this set's last trace:
			// the tables it built are still the ones newZipf would build.
			d.z = zipf{cdf: a.cdf, guide: a.guide}
			return d
		}
		d.z = newZipf(s, sized(&a.cdf, cfg.Flows), sized(&a.guide, cfg.Flows))
		a.zipfS = s
	}
	return d
}

func (d *flowDraw) next() int {
	if d.z.cdf != nil {
		return d.z.at(d.rng.Float64())
	}
	return d.rng.Intn(d.flows)
}
