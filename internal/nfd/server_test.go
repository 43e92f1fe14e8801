package nfd

import (
	"context"
	"testing"
)

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
