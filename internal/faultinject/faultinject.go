// Package faultinject is the runtime's deterministic fault plane: the
// analogue of the kernel's error-injection framework (functions tagged
// ALLOW_ERROR_INJECTION, driven through the fail_function fault
// attributes). A Plane owns named injection Sites; each site is armed
// with a Schedule (probability, every-Nth, after-N) and consulted from
// a failure surface — map update/lookup, memory-wrapper allocation,
// rpool refill, error-injectable kfuncs — via its Fire method.
//
// Determinism: for a given plane seed and site name, the sequence of
// Fire decisions is a pure function of the call index, so a chaos run
// that found a bug replays bit-for-bit. Counters are exported through
// internal/telemetry so injected faults show up next to the VM's
// bpf_stats-style counters in the metrics exposition.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Standard site names for the runtime's failure surfaces. A Plane will
// happily create sites with other names; these are the ones the VM and
// harness wiring use.
const (
	// SiteMapUpdate makes map Update return ErrNoSpace (the -E2BIG /
	// -ENOMEM surface of bpf_map_update_elem).
	SiteMapUpdate = "map_update"
	// SiteMapLookup makes map Lookup report a miss (NULL to programs).
	SiteMapLookup = "map_lookup"
	// SiteAlloc makes memory-wrapper node allocation fail (NULL).
	SiteAlloc = "node_alloc"
	// SiteRefill makes rpool refills fail (the pool serves stale values).
	SiteRefill = "rpool_refill"
	// SiteKfunc makes error-injectable kfuncs return their error value.
	SiteKfunc = "kfunc"
)

// Schedule describes when an armed site fires. Fields combine: a call
// fires if ANY active clause selects it. The zero Schedule never fires,
// which is how a site is armed-but-quiet.
type Schedule struct {
	// Prob fires each call independently with this probability, drawn
	// from the site's deterministic seeded stream ("probability" in the
	// fail_function attribute set).
	Prob float64
	// EveryNth fires calls n, 2n, 3n, ... ("interval").
	EveryNth uint64
	// AfterN fires every call after the first n ("space" exhausted: the
	// resource runs dry and stays dry).
	AfterN uint64
}

// Active reports whether any clause can ever fire.
func (s Schedule) Active() bool {
	return s.Prob > 0 || s.EveryNth > 0 || s.AfterN > 0
}

func (s Schedule) String() string {
	if !s.Active() {
		return "never"
	}
	out := ""
	if s.Prob > 0 {
		out += fmt.Sprintf("p=%g ", s.Prob)
	}
	if s.EveryNth > 0 {
		out += fmt.Sprintf("every=%d ", s.EveryNth)
	}
	if s.AfterN > 0 {
		out += fmt.Sprintf("after=%d ", s.AfterN)
	}
	return out[:len(out)-1]
}

// Site is one named injection point. The zero-value method set is safe:
// a nil *Site never fires, so surfaces can call hook sites
// unconditionally.
type Site struct {
	name  string
	seed  uint64
	sched Schedule

	armed     atomic.Bool
	evaluated atomic.Uint64
	injected  atomic.Uint64
}

// Evaluated returns how many times the site was consulted.
func (s *Site) Evaluated() uint64 {
	if s == nil {
		return 0
	}
	return s.evaluated.Load()
}

// Injected returns how many times the site fired.
func (s *Site) Injected() uint64 {
	if s == nil {
		return 0
	}
	return s.injected.Load()
}

// splitmix64 is the per-call mixer behind probabilistic schedules: the
// draw for call n is hash(seed, n), so firing needs no mutable RNG
// state and stays deterministic under any interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fire consults the site's schedule and reports whether this call must
// fail. Nil-safe and cheap when disarmed (one atomic load).
func (s *Site) Fire() bool {
	if s == nil || !s.armed.Load() {
		return false
	}
	n := s.evaluated.Add(1)
	sc := s.sched
	fire := sc.AfterN > 0 && n > sc.AfterN
	if !fire && sc.EveryNth > 0 && n%sc.EveryNth == 0 {
		fire = true
	}
	if !fire && sc.Prob > 0 {
		draw := float64(splitmix64(s.seed^n)>>11) / (1 << 53)
		fire = draw < sc.Prob
	}
	if fire {
		s.injected.Add(1)
	}
	return fire
}

// Plane owns the sites of one fault domain (typically: one chaos run).
type Plane struct {
	seed uint64

	mu    sync.Mutex
	sites map[string]*Site
}

// New creates a fault plane. All sites derive their deterministic
// streams from seed and their name.
func New(seed uint64) *Plane {
	if seed == 0 {
		seed = 0x51_7cc1b727220a95
	}
	return &Plane{seed: seed, sites: make(map[string]*Site)}
}

// Site returns the named site, creating it disarmed if needed.
func (p *Plane) Site(name string) *Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sites[name]
	if !ok {
		h := p.seed
		for _, c := range []byte(name) {
			h = splitmix64(h ^ uint64(c))
		}
		s = &Site{name: name, seed: h}
		p.sites[name] = s
	}
	return s
}

// Arm installs sched on the named site and enables it (arming with an
// inactive schedule leaves the site quiet). Counters are reset so each
// arming starts a fresh deterministic stream.
func (p *Plane) Arm(name string, sched Schedule) *Site {
	s := p.Site(name)
	s.armed.Store(false)
	s.evaluated.Store(0)
	s.injected.Store(0)
	s.sched = sched
	s.armed.Store(sched.Active())
	return s
}

// DisarmAll quiets every site, leaving counters readable.
func (p *Plane) DisarmAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sites {
		s.armed.Store(false)
	}
}

// SiteCount is one site's counter snapshot.
type SiteCount struct {
	Site      string
	Evaluated uint64
	Injected  uint64
}

// Counts snapshots every site's counters, sorted by site name.
func (p *Plane) Counts() []SiteCount {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SiteCount, 0, len(p.sites))
	for _, s := range p.sites {
		out = append(out, SiteCount{Site: s.name, Evaluated: s.Evaluated(), Injected: s.Injected()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
