package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunServesAndShutsDownGracefully boots the daemon on an ephemeral
// port, checks it answers, then cancels the context and expects a clean
// drain.
func TestRunServesAndShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	var out, errOut strings.Builder
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-max-workers", "2", "-drain", "2s"},
			&out, &errOut, func(addr string) { addrc <- addr })
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("run exited early: %v (stderr: %s)", err, errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health["ok"] {
		t.Fatalf("healthz: %v", health)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("unexpected log output: %q", out.String())
	}
}

// TestRunBadFlags exercises the flag-error path.
func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut, nil); err == nil {
		t.Fatal("expected flag error")
	}
}

// TestHTTPServerTimeouts: the daemon's server bounds header reads and idle
// keep-alive connections, and serves on the given context.
func TestHTTPServerTimeouts(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "daemon")
	srv := newHTTPServer(ctx, http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.BaseContext == nil || srv.BaseContext(nil).Value(ctxKey{}) != "daemon" {
		t.Fatal("BaseContext does not return the daemon's context")
	}
}
