package nfd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/runtime"
	"enetstl/internal/trace"
)

// TestNotServingIs409: the one ingest refusal that is the module's
// state and not the request's fault — it is draining under a delete, or
// deleted while a handler still held it — answers 409 with reason
// not_serving, and the same well-formed batch was a 200 before.
func TestNotServingIs409(t *testing.T) {
	s := NewServer()
	defer s.Registry.Close()
	m, err := s.Registry.Create(CreateRequest{Name: "cmsketch", Flavor: "kernel"})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/modules/"+m.ID+"/packets",
			strings.NewReader(`{"flows": 8, "packets": 8}`)))
		var body struct{ Reason string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("status %d with a body that is not JSON: %s", rec.Code, rec.Body)
		}
		return rec.Code, body.Reason
	}
	if code, _ := post(); code != http.StatusOK {
		t.Fatalf("serving module: status %d, want 200", code)
	}
	// The registry removes a module before draining it, so over HTTP the
	// window is a handler that looked the module up just before a delete:
	// reproduce it by moving the state while the module is still listed.
	m.mu.Lock()
	m.state = StateDraining
	m.mu.Unlock()
	if code, reason := post(); code != http.StatusConflict || reason != reasonNotServing {
		t.Errorf("draining module: status %d reason %q, want 409 %s", code, reason, reasonNotServing)
	}
	m.delete()
	if code, reason := post(); code != http.StatusConflict || reason != reasonNotServing {
		t.Errorf("deleted module: status %d reason %q, want 409 %s", code, reason, reasonNotServing)
	}
	if _, err := m.Ingest(runtime.TraceSpec{Flows: 8, Packets: 8}); !errors.Is(err, ErrNotServing) {
		t.Errorf("Ingest on a deleted module: err = %v, want ErrNotServing", err)
	}
}

// faultingNF fails every packet, as a program hitting a runtime fault
// would.
type faultingNF struct{ nf.Instance }

func (faultingNF) Process([]byte) (uint64, error) { return 0, errors.New("boom") }

// TestReplayFailureIs500: a packet that faults inside the NF is neither
// the request's fault nor the module's lifecycle: 500, replay_failed.
func TestReplayFailureIs500(t *testing.T) {
	s := NewServer()
	defer s.Registry.Close()
	m, err := s.Registry.Create(CreateRequest{Name: "cmsketch", Flavor: "kernel"})
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.insts[0] = faultingNF{m.insts[0]}
	m.mu.Unlock()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/modules/"+m.ID+"/packets",
		strings.NewReader(`{"flows": 8, "packets": 8}`)))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"reason": "`+reasonReplayFailed+`"`) {
		t.Fatalf("faulting NF: status %d body %s, want 500 %s", rec.Code, rec.Body, reasonReplayFailed)
	}
}

// TestStartedServerTimeouts pins the connection-level limits on the
// server Start actually runs: slow headers and idle keep-alives are
// bounded, response writing is not (see idleTimeout).
func TestStartedServerTimeouts(t *testing.T) {
	s := NewServer()
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // nothing in flight
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want it set", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want it set", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset", srv.WriteTimeout)
	}
}

// TestModuleTrace: GET /modules/{id}/trace drains the module's flight
// recording as NDJSON. A batch's events are served after the ingest,
// ?limit= bounds one response, a drained event is never served twice,
// a limit that is not a positive integer is a 400 bad_spec, and an
// unknown module is a 404.
func TestModuleTrace(t *testing.T) {
	s := NewServer()
	defer s.Registry.Close()
	m, err := s.Registry.Create(CreateRequest{Name: "cmsketch", Flavor: "ebpf",
		Options: runtime.Options{Trace: &runtime.TraceOptions{Capacity: 4096}}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	path := "/modules/" + m.ID + "/trace"
	drain := func(query string) []trace.Event {
		t.Helper()
		rec := serve("GET", path+query, "")
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("GET trace%s: status %d, content type %q", query, rec.Code, rec.Header().Get("Content-Type"))
		}
		var evs []trace.Event
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var ev trace.Event
			if err := dec.Decode(&ev); err != nil {
				t.Fatalf("GET trace%s: bad NDJSON: %v", query, err)
			}
			evs = append(evs, ev)
		}
		return evs
	}
	drain("") // whatever creating the module recorded

	const packets = 64
	if rec := serve("POST", "/modules/"+m.ID+"/packets", `{"flows": 8, "packets": 64}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	first := drain("?limit=10")
	if len(first) != 10 {
		t.Fatalf("?limit=10 served %d events", len(first))
	}
	rest := drain("")
	if len(rest) == 0 {
		t.Fatal("nothing left to drain after ?limit=10")
	}
	if last := first[len(first)-1].Seq; rest[0].Seq <= last {
		t.Fatalf("second drain starts at seq %d, not after %d: an event was served twice", rest[0].Seq, last)
	}
	verdicts := 0
	for _, ev := range append(first, rest...) {
		if ev.Kind == trace.KindVerdict {
			verdicts++
		}
	}
	if verdicts != packets {
		t.Fatalf("%d verdict events for a %d-packet batch", verdicts, packets)
	}
	if again := drain(""); len(again) != 0 {
		t.Fatalf("a drained recording served %d events again", len(again))
	}

	for _, limit := range []string{"0", "x", "-3"} {
		rec := serve("GET", path+"?limit="+limit, "")
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"reason": "`+reasonBadSpec+`"`) {
			t.Errorf("limit=%s: status %d body %s, want 400 %s", limit, rec.Code, rec.Body, reasonBadSpec)
		}
	}
	if rec := serve("GET", "/modules/no-such-module/trace", ""); rec.Code != http.StatusNotFound ||
		!strings.Contains(rec.Body.String(), `"reason": "`+reasonNotFound+`"`) {
		t.Errorf("unknown module: status %d body %s, want 404 %s", rec.Code, rec.Body, reasonNotFound)
	}
}
