// Package rpool implements eNetSTL's random-pool data structure (paper
// §4.3, "Data structures: random-pool"): pre-generated random numbers
// consumed on the datapath with automatic reinjection when the pool
// drains, plus a geometric-distribution pool (geo_rpool) for
// NitroSketch-style probabilistic updates.
package rpool

import (
	"errors"
	"fmt"
	"math"
)

// ErrConfig reports an invalid pool configuration.
var ErrConfig = errors.New("rpool: invalid configuration")

// Must unwraps a pool constructor result, panicking on error; for call
// sites with static, pre-validated parameters.
func Must[P any](p P, err error) P {
	if err != nil {
		panic(err)
	}
	return p
}

// xorshift64star is the pool generator; cheap, decent, deterministic.
type xorshift64star struct{ s uint64 }

func (x *xorshift64star) next() uint64 {
	x.s ^= x.s >> 12
	x.s ^= x.s << 25
	x.s ^= x.s >> 27
	return x.s * 0x2545f4914f6cdd1d
}

// Pool is a pool of uniform random uint32s. Next costs an array read
// and an index bump; when the pool empties it is refilled in place (the
// "automatic reinjection" the paper adds over fixed pools).
type Pool struct {
	buf []uint32
	pos int
	rng xorshift64star

	// Refills counts in-place refills, observable by tests and benches.
	Refills int
	// RefillFails counts refills suppressed by FailRefill.
	RefillFails int
	// FailRefill, when it returns true, makes the next refill fail: the
	// pool rewinds and serves its previous batch again (stale but valid
	// randomness — graceful degradation, not an error on the datapath).
	FailRefill func() bool
}

// NewPool creates a pool of size pre-generated numbers.
func NewPool(size int, seed uint64) (*Pool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: pool size %d", ErrConfig, size)
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	p := &Pool{buf: make([]uint32, size), rng: xorshift64star{s: seed}}
	p.refill()
	return p, nil
}

func (p *Pool) refill() {
	if p.FailRefill != nil && p.FailRefill() {
		p.pos = 0
		p.RefillFails++
		return
	}
	for i := range p.buf {
		p.buf[i] = uint32(p.rng.next())
	}
	p.pos = 0
	p.Refills++
}

// Next returns the next pooled random number.
func (p *Pool) Next() uint32 {
	if p.pos == len(p.buf) {
		p.refill()
	}
	v := p.buf[p.pos]
	p.pos++
	return v
}

// GeoPool is a pool of geometric-distributed skip counts with success
// probability prob: each sample is the number of trials until the next
// success. NitroSketch consumes these to decide how many update
// opportunities to skip, replacing one uniform draw per row per packet.
type GeoPool struct {
	buf  []uint32
	pos  int
	rng  xorshift64star
	logq float64

	// Refills counts in-place refills.
	Refills int
	// RefillFails counts refills suppressed by FailRefill.
	RefillFails int
	// FailRefill, when it returns true, makes the next refill fail: the
	// pool rewinds and serves its previous batch again.
	FailRefill func() bool
}

// NewGeoPool creates a pool of size geometric samples with parameter
// prob in (0, 1].
func NewGeoPool(size int, prob float64, seed uint64) (*GeoPool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: pool size %d", ErrConfig, size)
	}
	if prob <= 0 || prob > 1 {
		return nil, fmt.Errorf("%w: prob %g not in (0,1]", ErrConfig, prob)
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	g := &GeoPool{buf: make([]uint32, size), rng: xorshift64star{s: seed}}
	if prob < 1 {
		g.logq = math.Log1p(-prob)
	}
	g.refill()
	return g, nil
}

func (g *GeoPool) refill() {
	if g.FailRefill != nil && g.FailRefill() {
		g.pos = 0
		g.RefillFails++
		return
	}
	for i := range g.buf {
		g.buf[i] = g.sample()
	}
	g.pos = 0
	g.Refills++
}

func (g *GeoPool) sample() uint32 {
	if g.logq == 0 {
		return 1 // prob == 1: every trial succeeds
	}
	// Inverse transform: ceil(ln(U)/ln(1-p)), U uniform in (0,1).
	u := (float64(g.rng.next()>>11) + 1) / (1 << 53)
	k := math.Ceil(math.Log(u) / g.logq)
	if k < 1 {
		k = 1
	}
	if k > math.MaxUint32 {
		k = math.MaxUint32
	}
	return uint32(k)
}

// Next returns the next geometric skip count (>= 1).
func (g *GeoPool) Next() uint32 {
	if g.pos == len(g.buf) {
		g.refill()
	}
	v := g.buf[g.pos]
	g.pos++
	return v
}
