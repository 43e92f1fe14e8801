package obs_test

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"enetstl/internal/obs"
)

// TestServerRestartNoGoroutineLeak pins the shutdown path a long-lived
// process exercises: repeated attach/serve/Close cycles must not strand
// listener or handler goroutines, and the server must be restartable
// after each.
func TestServerRestartNoGoroutineLeak(t *testing.T) {
	client := &http.Client{}
	scrape := func(base string) error {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/metrics status %d", resp.StatusCode)
		}
		return nil
	}

	srv := obs.New()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := scrape("http://" + addr); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", i, err)
		}
	}
	client.CloseIdleConnections()

	// Serve goroutines unwind asynchronously after Close returns; give
	// them a bounded settle window before declaring a leak.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 10 serve cycles", before, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
