// The daemon's REST surface:
//
//	GET    /modules               list modules
//	POST   /modules               create (CreateRequest body)
//	GET    /modules/{id}          one module's status
//	DELETE /modules/{id}          graceful drain + delete
//	POST   /modules/{id}/packets  replay a batch (TraceSpec body);
//	                              429 when the module's guard shed,
//	                              409 when the module is draining
//	GET    /modules/{id}/stats    per-module VM stats snapshot
//	GET    /modules/{id}/trace    per-module flight-recorder JSONL
//	GET    /modules/{id}/estimates?flow=N | ?key=HEX
//	/metrics /trace /profile /debug/pprof  the obs plane
//
// Request bodies are capped at MaxBodyBytes; a larger one is a 413.
// Every error body carries, beside the message, a machine-readable
// "reason" — one of the reason* constants below — and each refusal
// counts once in nfd_http_errors_total{code,reason} on /metrics.
package nfd

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"enetstl/internal/harness"
	"enetstl/internal/obs"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
)

// MaxBodyBytes caps a request body. The largest body a client has
// reason to send is a raw packet batch (base64 packets in a JSON list,
// ~91 bytes per 64-byte packet): 16 MiB holds about 180k packets, far
// above the benchmark's largest batch (256 packets, ~23 KB).
const MaxBodyBytes = 16 << 20

// readHeaderTimeout bounds how long a connection may take to deliver
// its request headers, so idle or trickling clients cannot pin
// connections open. Bodies are bounded by size, not time: a large batch
// over a slow link is legitimate.
const readHeaderTimeout = 10 * time.Second

// idleTimeout closes a keep-alive connection no request has arrived on
// for this long, so departed clients do not hold connections for good.
// There is deliberately no WriteTimeout: it runs from the end of the
// request headers to the end of the response, so it would cap how long
// the replay of a legitimate MaxBodyBytes batch may take.
const idleTimeout = 2 * time.Minute

// The reasons an error body names.
const (
	reasonBadSpec      = "bad_spec"      // 400: the request does not describe something buildable
	reasonOverLimit    = "over_limit"    // 400: a size field is above its runtime ceiling
	reasonTooLarge     = "too_large"     // 413: the body is over MaxBodyBytes
	reasonNotFound     = "not_found"     // 404: no such module, or nothing to serve for it
	reasonNotServing   = "not_serving"   // 409: the module is draining or deleted
	reasonQuota        = "quota"         // 429: the built module breaches its quota
	reasonReplayFailed = "replay_failed" // 500: a packet faulted inside the NF
)

// Server glues the registry to HTTP and mounts the obs plane on the
// same mux.
type Server struct {
	Registry *Registry
	Obs      *obs.Server

	mu      sync.Mutex
	httpSrv *http.Server
}

// NewServer builds a daemon server whose obs plane serves the modules
// and nothing else: /metrics gathers the registry's per-module series
// and /profile its stats-enabled modules' reports, so a deleted module
// leaves nothing behind on either.
func NewServer() *Server {
	s := &Server{Registry: NewRegistry(), Obs: obs.New()}
	s.Obs.AddGatherer(s.Registry.Publish)
	s.Obs.SetProfile(s.Registry.Profile)
	return s
}

// Handler builds the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /modules", s.handleList)
	mux.HandleFunc("POST /modules", s.handleCreate)
	mux.HandleFunc("GET /modules/{id}", s.handleGet)
	mux.HandleFunc("DELETE /modules/{id}", s.handleDelete)
	mux.HandleFunc("POST /modules/{id}/packets", s.handlePackets)
	mux.HandleFunc("GET /modules/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /modules/{id}/trace", s.handleModuleTrace)
	mux.HandleFunc("GET /modules/{id}/estimates", s.handleEstimates)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.Obs.Mount(mux)
	return mux
}

// Start serves the daemon mux (lifecycle routes + mounted obs plane)
// in the background on addr (":0" picks a free port), returning the
// bound address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpSrv != nil {
		return "", fmt.Errorf("nfd: server already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown
	return ln.Addr().String(), nil
}

// Shutdown drains every module, then gracefully stops the listener
// (bounded by ctx). The server is restartable afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Registry.Close()
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "nfd",
		"endpoints": []string{
			"GET /modules", "POST /modules", "GET /modules/{id}",
			"DELETE /modules/{id}", "POST /modules/{id}/packets",
			"GET /modules/{id}/stats", "GET /modules/{id}/trace",
			"GET /modules/{id}/estimates", "/metrics", "/trace", "/profile",
		},
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"modules": s.Registry.List()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !s.decodeStrict(w, r, &req) {
		return
	}
	m, err := s.Registry.Create(req)
	if err != nil {
		if errors.Is(err, runtime.ErrQuota) {
			// The built module breaches its map-memory or rpool quota:
			// same status as datapath shedding.
			s.writeErr(w, http.StatusTooManyRequests, reasonQuota, err)
		} else {
			s.writeErr(w, http.StatusBadRequest, reasonBadSpec, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, m.Status())
}

func (s *Server) module(w http.ResponseWriter, r *http.Request) (*Module, bool) {
	id := r.PathValue("id")
	m, ok := s.Registry.Get(id)
	if !ok {
		s.writeErr(w, http.StatusNotFound, reasonNotFound, fmt.Errorf("no module %q", id))
		return nil, false
	}
	return m, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if m, ok := s.module(w, r); ok {
		writeJSON(w, http.StatusOK, m.Status())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Registry.Delete(id); err != nil {
		s.writeErr(w, http.StatusNotFound, reasonNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handlePackets(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	var spec runtime.TraceSpec
	if !s.decodeStrict(w, r, &spec) {
		return
	}
	res, err := m.Ingest(spec)
	if err != nil {
		var bad specError
		switch {
		case errors.As(err, &bad):
			// The batch description is at fault — an unknown scenario, a
			// malformed raw packet, a size over its ceiling — and was
			// refused before the module was touched.
			s.writeErr(w, http.StatusBadRequest, reasonBadSpec, err)
		case errors.Is(err, ErrNotServing):
			s.writeErr(w, http.StatusConflict, reasonNotServing, err)
		default:
			s.writeErr(w, http.StatusInternalServerError, reasonReplayFailed, err)
		}
		return
	}
	code := http.StatusOK
	if res.Shed > 0 {
		// The guard shed under this batch: the tenant is over its insn
		// budget. The body still carries the partial results — sheds are
		// graceful degradation, not failures.
		code = http.StatusTooManyRequests
	}
	writeJSON(w, code, res)
}

// statsSnapshot is the GET /modules/{id}/stats view.
type statsSnapshot struct {
	Prog      string `json:"prog"`
	RunCnt    uint64 `json:"run_cnt"`
	RunTimeNs uint64 `json:"run_time_ns"`
	Insns     uint64 `json:"insns"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	// Snapshot under mu: vm.Stats is not safe to read while a batch
	// is mutating it.
	m.mu.Lock()
	st := m.stats
	out := []statsSnapshot{}
	if st != nil {
		for _, name := range st.ProgNames() {
			ps, ok := st.ProgSnapshot(name)
			if !ok {
				continue
			}
			out = append(out, statsSnapshot{
				Prog: name, RunCnt: ps.RunCnt, RunTimeNs: ps.RunTimeNs, Insns: ps.Insns,
			})
		}
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"module": m.ID, "programs": out})
}

func (s *Server) handleModuleTrace(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	limit := 10000
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeErr(w, http.StatusBadRequest, reasonBadSpec, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	written := 0
	for written < limit {
		batch := m.DrainTrace(min(4096, limit-written))
		if len(batch) == 0 {
			break
		}
		for _, ev := range batch {
			if enc.Encode(ev) != nil {
				return // client gone
			}
			written++
		}
	}
}

func (s *Server) handleEstimates(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	var key []byte
	switch {
	case q.Get("key") != "":
		b, err := hex.DecodeString(q.Get("key"))
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, reasonBadSpec, fmt.Errorf("bad key hex: %w", err))
			return
		}
		key = b
	case q.Get("flow") != "":
		i, err := strconv.Atoi(q.Get("flow"))
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, reasonBadSpec, fmt.Errorf("bad flow %q", q.Get("flow")))
			return
		}
		k, ok := m.FlowKey(i)
		if !ok {
			s.writeErr(w, http.StatusBadRequest, reasonBadSpec, fmt.Errorf("flow %d outside seed trace", i))
			return
		}
		key = k
	default:
		s.writeErr(w, http.StatusBadRequest, reasonBadSpec, fmt.Errorf("need ?flow=N or ?key=HEX"))
		return
	}
	est, ok := m.Estimate(key)
	if !ok {
		s.writeErr(w, http.StatusNotFound, reasonNotFound, fmt.Errorf("%s has no control-plane estimator", m.Name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"module": m.ID, "key": hex.EncodeToString(key), "estimate": est,
	})
}

// BatchResponse documents the POST packets body shape for clients; the
// handler writes harness.BatchResult directly.
type BatchResponse = harness.BatchResult

// decodeStrict decodes the size-capped JSON body into v, rejecting
// unknown fields. On failure it has already answered — 413 for a body
// over MaxBodyBytes, 400 for anything else — and returns false.
func (s *Server) decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code, reason := http.StatusBadRequest, reasonBadSpec
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code, reason = http.StatusRequestEntityTooLarge, reasonTooLarge
	}
	s.writeErr(w, code, reason, fmt.Errorf("bad request body: %w", err))
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// writeErr answers with the error text and its machine-readable reason
// and counts the refusal. A request over one of the runtime ceilings is
// the more specific over_limit whatever the caller called it, and also
// says which field, what it asked for, and the most it may.
func (s *Server) writeErr(w http.ResponseWriter, code int, reason string, err error) {
	body := map[string]any{"error": err.Error()}
	var lim *runtime.LimitError
	if errors.As(err, &lim) {
		reason = reasonOverLimit
		body["field"] = lim.Field
		body["got"] = lim.Got
		body["max"] = lim.Max
	}
	body["reason"] = reason
	reg := s.Obs.Registry()
	reg.Counter("nfd_http_errors_total",
		telemetry.L("code", strconv.Itoa(code)), telemetry.L("reason", reason)).Inc()
	reg.SetHelp("nfd_http_errors_total", "requests the daemon answered with an error body, by status and reason")
	writeJSON(w, code, body)
}
