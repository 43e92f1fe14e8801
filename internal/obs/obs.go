// Package obs is the runtime's live observability plane: one HTTP
// server that exposes, while a replay is running,
//
//	/metrics   Prometheus text exposition (telemetry registry merge of
//	           static series, recorder ring accounting, and the
//	           gatherers the owner registers — the daemon's per-module
//	           bpf_stats counters among them)
//	/trace     flight-recorder events as JSONL, filterable by flow hash,
//	           verdict, event kind, and NF name; drains the live ring
//	/profile   harness.ProfileReport attribution tables, as JSON, from
//	           the one source the owner registers (SetProfile)
//	/debug/pprof  the Go runtime profiler, because the interpreter IS
//	           the datapath here
//
// The server reads no process state: it serves what its owner hands
// it. The nfd daemon mounts it on its own mux, and `nfrun -serve`
// starts one for the duration of a replay.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"enetstl/internal/harness"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

// Server is the observability HTTP server. Construct with New; zero
// value is not usable.
type Server struct {
	mu sync.Mutex
	// reg holds long-lived series (replay results published post-run).
	reg *telemetry.Registry
	// gather callbacks populate a fresh registry at every /metrics
	// scrape; the static reg is merged in afterwards.
	gather []func(*telemetry.Registry)
	// rec is the live ring /trace drains; nil when tracing is off.
	rec *trace.Recorder
	// events holds pre-merged event batches (e.g. a sharded run's
	// timestamp-merged stream) served by /trace before the live ring.
	events []trace.Event
	// profile is the source /profile reports from; nil answers [].
	profile func() []*harness.ProfileReport

	httpSrv *http.Server
	ln      net.Listener
}

// New returns a server with an empty static registry, no gatherers and
// no profile source.
func New() *Server {
	return &Server{reg: telemetry.NewRegistry()}
}

// Registry returns the static registry; replay code publishes finished
// results (latency histograms, fault counts) into it.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// AddGatherer registers a callback run at every /metrics scrape against
// a fresh registry, for live sources whose counters must be re-read.
func (s *Server) AddGatherer(fn func(*telemetry.Registry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gather = append(s.gather, fn)
}

// SetRecorder attaches the live flight-recorder ring /trace drains and
// /metrics accounts.
func (s *Server) SetRecorder(r *trace.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = r
}

// SetProfile registers the source /profile reports from. The owner
// reads its own stats in fn, under whatever lock keeps them consistent
// (vm.Stats is not safe to read mid-replay).
func (s *Server) SetProfile(fn func() []*harness.ProfileReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profile = fn
}

// AddEvents appends a pre-merged event batch (a sharded run's
// MergeByTime output) to the static stream /trace serves.
func (s *Server) AddEvents(evs []trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, evs...)
}

// Handler builds the route table. It is safe to call before Start (for
// tests mounting the handler directly).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	s.Mount(mux)
	return mux
}

// Mount registers the observability routes (everything but the index)
// on an existing mux — how the nfd daemon folds the obs plane into its
// own route table without a second listener.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address. Starting an already-started
// server is an error (the old listener would leak).
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	if s.httpSrv != nil {
		s.mu.Unlock()
		return "", fmt.Errorf("obs: server already started")
	}
	s.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	srv := s.httpSrv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// detach removes and returns the running http server, leaving s
// restartable: a Start/Close cycle must not retain the dead listener
// or server (repeated attach/detach in one process would accumulate
// them).
func (s *Server) detach() *http.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	srv := s.httpSrv
	s.httpSrv, s.ln = nil, nil
	return srv
}

// Close shuts the listener down immediately, dropping in-flight
// scrapes. The server may be started again afterwards.
func (s *Server) Close() error {
	srv := s.detach()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><head><title>enetstl obs</title></head><body>
<h1>eNetSTL observability plane</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/trace">/trace</a> — flight-recorder JSONL (params: flow, verdict, kind, nf, limit)</li>
<li><a href="/profile">/profile</a> — live attribution tables (JSON)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go runtime profiles</li>
</ul>
</body></html>
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	var gather []func(*telemetry.Registry)
	gather = append(gather, s.gather...)
	rec := s.rec
	s.mu.Unlock()

	// Fresh per-scrape registry: gatherers re-publish live counters into
	// it, then the static series merge in. Merging (instead of text
	// concatenation) keeps each family to a single exposition block.
	scrape := telemetry.NewRegistry()
	for _, fn := range gather {
		fn(scrape)
	}
	if rec != nil {
		rec.Publish(scrape)
	}
	scrape.Merge(s.reg)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	scrape.WriteText(w) //nolint:errcheck // client gone
}

// traceFilter is the parsed /trace query.
type traceFilter struct {
	flow       uint32
	hasFlow    bool
	verdict    uint64
	hasVerdict bool
	kind       trace.Kind
	hasKind    bool
	nf         string
	limit      int
}

func (f *traceFilter) match(ev trace.Event) bool {
	if f.hasFlow && ev.Flow != f.flow {
		return false
	}
	if f.hasVerdict && (ev.Kind != trace.KindVerdict || ev.Val != f.verdict) {
		return false
	}
	if f.hasKind && ev.Kind != f.kind {
		return false
	}
	if f.nf != "" && ev.Name != f.nf {
		return false
	}
	return true
}

func parseTraceFilter(r *http.Request) (*traceFilter, error) {
	q := r.URL.Query()
	f := &traceFilter{limit: 10000}
	if v := q.Get("flow"); v != "" {
		// Accept decimal or 0x-prefixed hex, the forms /trace emits.
		n, err := strconv.ParseUint(strings.TrimPrefix(v, "0x"), map[bool]int{true: 16, false: 10}[strings.HasPrefix(v, "0x")], 32)
		if err != nil {
			return nil, fmt.Errorf("bad flow %q: %w", v, err)
		}
		f.flow, f.hasFlow = uint32(n), true
	}
	if v := q.Get("verdict"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad verdict %q: %w", v, err)
		}
		f.verdict, f.hasVerdict = n, true
	}
	if v := q.Get("kind"); v != "" {
		k, ok := trace.KindFromString(v)
		if !ok {
			return nil, fmt.Errorf("unknown kind %q", v)
		}
		f.kind, f.hasKind = k, true
	}
	f.nf = q.Get("nf")
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad limit %q", v)
		}
		f.limit = n
	}
	return f, nil
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	f, err := parseTraceFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	static := s.events
	rec := s.rec
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	written := 0
	emit := func(evs []trace.Event) {
		for _, ev := range evs {
			if written >= f.limit {
				return
			}
			if !f.match(ev) {
				continue
			}
			if enc.Encode(ev) != nil {
				written = f.limit // client gone; stop
				return
			}
			written++
		}
	}
	emit(static)
	// The live ring is consumed: each event streams out exactly once
	// across scrapes, like reading a BPF ring buffer.
	if rec != nil {
		for written < f.limit {
			batch := rec.Drain(4096)
			if len(batch) == 0 {
				break
			}
			emit(batch)
		}
	}
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

// handleProfile reports attribution from the registered profile
// source, one report per program it counted; [] without one.
func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	src := s.profile
	s.mu.Unlock()
	reports := []*harness.ProfileReport{}
	if src != nil {
		reports = append(reports, src()...)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(reports) //nolint:errcheck // client gone
}
