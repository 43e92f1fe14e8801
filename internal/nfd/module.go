// Package nfd is the long-lived NF daemon: an HTTP control plane that
// loads, configures, runs, and tears down NF module instances at
// runtime. A module is one catalog NF configured by a per-instance
// runtime.Options value (tier, shards, quotas, guard, tracing) — the
// same serializable struct the CLIs parse from flags, so a JSON request
// body and a flag set construct bit-identically the same instance.
// Packet streams are pushed in batches over HTTP and replayed
// through the module's persistent instances; the same listener serves
// the modules' metrics, flight recordings and profiles.
package nfd

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

// State is a module's lifecycle position. Transitions only move
// forward: created → attached → running → draining → deleted.
type State int

// The lifecycle states.
const (
	// StateCreated: instances are built and tables preloaded.
	StateCreated State = iota
	// StateAttached: instrumentation (stats, recorder, metrics
	// gatherer) is wired; the module is visible at /metrics.
	StateAttached
	// StateRunning: at least one packet batch has been replayed.
	StateRunning
	// StateDraining: a delete is waiting for the in-flight batch.
	StateDraining
	// StateDeleted: terminal; the module is gone from the registry.
	StateDeleted
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateAttached:
		return "attached"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateDeleted:
		return "deleted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// CreateRequest is the POST /modules body.
type CreateRequest struct {
	// Name is the catalog NF name (nfcatalog.Names).
	Name string `json:"name"`
	// Flavor is kernel | ebpf | enetstl.
	Flavor string `json:"flavor"`
	// Options configures the instance; the zero value is an unsharded,
	// predecoded module with no stats, recorder, guard or quota.
	Options runtime.Options `json:"options,omitempty"`
	// Trace seeds the module's tables (flow keys preloaded into
	// switches, filters, classifiers) and anchors the estimator flow
	// keys; an empty spec means 256 flows, seed 1. Only the flow table
	// is built: a generator spec's packets and zipf are validated
	// against the same ceilings as a batch's but never generated, since
	// no NF preloads from packets, and modules seeded from one benign
	// spec share one table (Registry). A scenario spec keeps its attack
	// flows too; a raw spec has no flow table.
	Trace runtime.TraceSpec `json:"trace,omitempty"`
}

// Module is one live NF instance set (one instance per shard) plus its
// instrumentation. Batches and lifecycle transitions serialize on mu,
// so a delete draining the module waits for the in-flight batch.
type Module struct {
	ID     string          `json:"id"`
	Name   string          `json:"name"`
	Flavor string          `json:"flavor"`
	Opts   runtime.Options `json:"options"`

	mu       sync.Mutex
	state    State
	insts    []nf.Instance // per shard; guard-wrapped when guarded
	guards   []*guard.Guard
	sharded  *nfcatalog.Sharded
	stats    *vm.Stats
	rec      *trace.Recorder
	flows    [][nf.KeyLen]byte // read-only: shared when seedKey is set
	seedKey  *runtime.FlowTableKey
	tickBase []uint64
	batches  uint64
	packets  uint64
	shed     uint64
	verdicts harness.VerdictCounts // summed over every batch
}

// Status is the serializable module view.
type Status struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Flavor  string          `json:"flavor"`
	State   string          `json:"state"`
	Options runtime.Options `json:"options"`
	Shards  int             `json:"shards"`
	Batches uint64          `json:"batches"`
	Packets uint64          `json:"packets"`
	Shed    uint64          `json:"shed"`
	Guarded bool            `json:"guarded"`
}

// Status snapshots the module.
func (m *Module) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Status{
		ID: m.ID, Name: m.Name, Flavor: m.Flavor,
		State: m.state.String(), Options: m.Opts,
		Shards: len(m.insts), Batches: m.batches, Packets: m.packets,
		Shed: m.shed, Guarded: len(m.guards) > 0,
	}
}

// Registry is the concurrency-safe module table. It also holds one
// flow table per benign seed spec that a live module was created from,
// shared read-only by every module holding it, as the kernel shares one
// read-only object among the programs that hold it.
type Registry struct {
	mu     sync.RWMutex
	mods   map[string]*Module
	seq    uint64
	tables map[runtime.FlowTableKey]*sharedFlows
}

// sharedFlows is one benign seed spec's flow table and the number of
// live modules holding it.
type sharedFlows struct {
	keys [][nf.KeyLen]byte
	refs int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{mods: make(map[string]*Module), tables: make(map[runtime.FlowTableKey]*sharedFlows)}
}

// takeFlows returns the seed flow table for spec and, for a benign spec,
// the key of the shared table it took a reference on; the caller gives
// that back with putFlows. The table is built outside the lock: two
// creates racing on a new spec may both build it, but only the first
// to register it keeps it, so one spec never has two tables. A scenario
// or raw spec gets a table of its own and no key.
func (r *Registry) takeFlows(spec runtime.TraceSpec) ([][nf.KeyLen]byte, *runtime.FlowTableKey, error) {
	k, benign, err := spec.FlowTableKey()
	if err != nil {
		return nil, nil, err
	}
	if !benign {
		flows, err := spec.FlowTable()
		return flows, nil, err
	}
	r.mu.Lock()
	t, ok := r.tables[k]
	if ok {
		t.refs++
	}
	r.mu.Unlock()
	if ok {
		return t.keys, &k, nil
	}
	keys := pktgen.FlowTable(k.Flows, k.Seed)
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.tables[k]; !ok {
		t = &sharedFlows{keys: keys}
		r.tables[k] = t
	}
	t.refs++
	return t.keys, &k, nil
}

// putFlows drops one reference on the shared table k names, and the
// table with the last one. A nil k (a table of the module's own) is a
// no-op.
func (r *Registry) putFlows(k *runtime.FlowTableKey) {
	if k == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tables[*k]
	t.refs--
	if t.refs == 0 {
		delete(r.tables, *k)
	}
}

// List returns the module statuses, in no particular order.
func (r *Registry) List() []Status {
	mods := r.snapshot()
	out := make([]Status, len(mods))
	for i, m := range mods {
		out[i] = m.Status()
	}
	return out
}

// Get looks a module up by id.
func (r *Registry) Get(id string) (*Module, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.mods[id]
	return m, ok
}

// Create builds a module from req: instances constructed, then the
// request's Options applied to them — tier and quotas (created), then
// instrumentation (attached). Quota breaches surface as
// runtime.ErrQuota. Create holds no lock while it builds, so concurrent
// creates build in parallel; it takes the registry's lock only to take
// the seed flow table and to register the finished module.
func (r *Registry) Create(req CreateRequest) (*Module, error) {
	flavor, err := nf.ParseFlavor(req.Flavor)
	if err != nil {
		return nil, err
	}
	if !nfcatalog.Supports(req.Name, flavor) {
		if !slices.Contains(nfcatalog.Names(), req.Name) {
			return nil, fmt.Errorf("unknown NF %q", req.Name)
		}
		return nil, fmt.Errorf("%s has no %s flavour", req.Name, flavor)
	}
	o := req.Options
	if err := o.Validate(); err != nil {
		return nil, err
	}
	flows, seedKey, err := r.takeFlows(req.Trace)
	if err != nil {
		return nil, err
	}
	m, err := newModule(req.Name, flavor, o, flows)
	if err != nil {
		r.putFlows(seedKey)
		return nil, err
	}
	m.seedKey = seedKey

	r.mu.Lock()
	r.seq++
	m.ID = fmt.Sprintf("%s-%d", req.Name, r.seq)
	r.mods[m.ID] = m
	r.mu.Unlock()
	return m, nil
}

// newModule builds, configures and attaches a module's instances over
// the seed flow table flows.
func newModule(name string, flavor nf.Flavor, o runtime.Options, flows [][nf.KeyLen]byte) (*Module, error) {
	// Nothing writes flows: Open reads it through a packetless seed
	// trace — the catalog preloads tables from FlowKeys and reads
	// nothing else — and keeps no slice of it, so modules may share it.
	built, sh, err := nfcatalog.Open(o, name, flavor, &pktgen.Trace{FlowKeys: flows})
	if err != nil {
		return nil, err
	}
	m := &Module{
		Name: name, Flavor: flavor.String(), Opts: o.Canon(),
		sharded: sh, flows: flows, tickBase: make([]uint64, len(built)),
		state: StateCreated,
	}

	// Attachment: per-module stats shared by the shards (they replay one
	// at a time, under mu), flight recorder, guards carrying the
	// catalog's per-NF policy wiring — the step nfrun runs too.
	a := nfcatalog.Attach(o, name, built...)
	m.insts, m.guards, m.stats, m.rec = a.Insts, a.Guards, a.Stats, a.Rec
	m.state = StateAttached
	return m, nil
}

// ErrNotServing is Ingest's refusal of a module that is past running:
// draining under a delete, or deleted.
var ErrNotServing = errors.New("nfd: module is not serving")

// specError marks an Ingest error as the batch description's fault: it
// was refused before the module was touched. The text is the cause's.
type specError struct{ error }

func (e specError) Unwrap() error { return e.error }

// Ingest replays one batch spec through the module. The batch trace
// gets the NF's op mix (exactly as the CLIs prepare traces) unless it
// is a raw replay, then is hash-partitioned across the module's shards.
// Guard ticks continue from the previous batch per shard. The batch's
// arrays go back to pktgen's pool when Ingest returns — this is the
// trace's only owner, and no NF may hold packet memory past Process.
func (m *Module) Ingest(spec runtime.TraceSpec) (harness.BatchResult, error) {
	tr, err := spec.Build()
	if err != nil {
		return harness.BatchResult{}, specError{err}
	}
	defer tr.Release()
	if len(spec.Raw) == 0 {
		nfcatalog.PrepareTrace(m.Name, tr)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateAttached && m.state != StateRunning {
		return harness.BatchResult{}, fmt.Errorf("module is %s: %w", m.state, ErrNotServing)
	}

	subs := []*pktgen.Trace{tr}
	if len(m.insts) > 1 {
		subs = tr.Shard(len(m.insts))
	}
	// The shards share one Stats and one ring, so they replay in turn.
	res, err := harness.ReplayShards(m.insts, subs, m.tickBase, 1, false)
	total := res[0]
	for _, r := range res[1:] {
		total.Add(r)
	}
	m.state = StateRunning
	m.batches++
	m.packets += uint64(total.Packets)
	m.shed += total.Shed
	m.verdicts.Add(total.Verdicts)
	return total, err
}

// Estimate probes the module's control-plane estimator for key,
// summing across shards (the merge-on-read a kernel control plane
// performs over per-CPU maps). ok is false when the NF has none.
func (m *Module) Estimate(key []byte) (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sharded == nil { // deleted
		return 0, false
	}
	return m.sharded.Estimate(key)
}

// FlowKey resolves seed-trace flow i's key, for estimator probes by
// flow index.
func (m *Module) FlowKey(i int) ([]byte, bool) {
	if i < 0 || i >= len(m.flows) {
		return nil, false
	}
	return m.flows[i][:], true
}

// DrainTrace consumes up to max events from the module's flight
// recorder; nil when tracing is off.
func (m *Module) DrainTrace(max int) []trace.Event {
	if m.rec == nil {
		return nil
	}
	return m.rec.Drain(max)
}

// Publish writes the module's live counters into reg — the per-module
// gatherer behind the daemon's /metrics. It holds mu throughout: a
// batch mutates vm.Stats and the guard's budget, neither of which is
// safe to read mid-replay, so a scrape waits out the in-flight batch.
func (m *Module) Publish(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lbl := []telemetry.Label{
		telemetry.L("module", m.ID), telemetry.L("nf", m.Name),
		telemetry.L("flavor", m.Flavor),
	}
	reg.SetHelp("nfd_module_state", "lifecycle state (created=0 attached=1 running=2 draining=3)")
	reg.Gauge("nfd_module_state", lbl...).Set(float64(m.state))
	reg.SetHelp("nfd_module_batches_total", "packet batches replayed")
	reg.Counter("nfd_module_batches_total", lbl...).Add(m.batches)
	reg.SetHelp("nfd_module_packets_total", "packets pushed through the module")
	reg.Counter("nfd_module_packets_total", lbl...).Add(m.packets)
	reg.SetHelp("nfd_module_verdicts_total", "verdicts the module's batches returned, sheds included")
	for verdict, n := range m.verdicts.Map() {
		reg.Counter("nfd_module_verdicts_total", append(lbl, telemetry.L("verdict", verdict))...).Add(n)
	}
	for _, g := range m.guards {
		g.Publish(reg)
	}
	if m.stats != nil {
		m.stats.Publish(reg)
	}
	if m.rec != nil {
		m.rec.Publish(reg)
	}
}

// delete transitions the module out of service: it waits (on mu) for
// any in-flight batch, marks draining, detaches instrumentation, and
// marks deleted. Idempotence is the registry's job.
func (m *Module) delete() {
	m.mu.Lock()
	m.state = StateDraining
	insts := m.insts
	m.mu.Unlock()
	// Drain point: the batch that was in flight when Delete was called
	// has finished (we held mu); new batches see draining and bounce.
	for _, inst := range insts {
		runtime.AttachRecorder(inst, nil)
	}
	m.mu.Lock()
	m.state = StateDeleted
	m.insts, m.guards, m.sharded, m.stats, m.rec = nil, nil, nil, nil, nil
	m.mu.Unlock()
}

// Delete gracefully removes id: the module drains (in-flight batch
// completes, subsequent batches are rejected), its instrumentation
// detaches, and it leaves the registry, giving back its seed flow
// table.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	m, ok := r.mods[id]
	if ok {
		delete(r.mods, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("no module %q", id)
	}
	m.delete()
	r.putFlows(m.seedKey)
	return nil
}

// Close drains and deletes every module — daemon shutdown.
func (r *Registry) Close() {
	for _, s := range r.List() {
		r.Delete(s.ID) //nolint:errcheck // racing deletes are fine
	}
}

// Profile reports attribution for every stats-enabled module, one
// report per program labelled with the module ID — the daemon's
// /profile source. Each module's Stats is read under its mu, like
// /metrics, so a report never sees a batch half-counted.
func (r *Registry) Profile() []*harness.ProfileReport {
	var out []*harness.ProfileReport
	for _, m := range r.snapshot() {
		m.mu.Lock()
		if m.stats != nil {
			out = append(out, harness.Reports(m.stats, m.ID)...)
		}
		m.mu.Unlock()
	}
	return out
}

// snapshot lists the live modules.
func (r *Registry) snapshot() []*Module {
	r.mu.RLock()
	defer r.mu.RUnlock()
	mods := make([]*Module, 0, len(r.mods))
	for _, m := range r.mods {
		mods = append(mods, m)
	}
	return mods
}

// Publish writes every module's counters into reg.
func (r *Registry) Publish(reg *telemetry.Registry) {
	mods := r.snapshot()
	reg.SetHelp("nfd_modules", "live modules in the registry")
	reg.Gauge("nfd_modules").Set(float64(len(mods)))
	for _, m := range mods {
		m.Publish(reg)
	}
}
