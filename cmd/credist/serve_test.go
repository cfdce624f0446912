package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServerDropsStalledHeaders pins the listener's connection timeouts:
// newHTTPServer sets the header and idle timeouts (and no write timeout,
// which would cut off long selections), and a client that never finishes
// its request headers is disconnected once the header timeout passes.
// The timeout is shortened here so the test does not wait the full
// production value.
func TestServerDropsStalledHeaders(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	srv := newHTTPServer("127.0.0.1:0", ok)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: read-header %v, idle %v, write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers begun but never finished: no blank line ever follows.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: credist\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v with unfinished headers", time.Since(start).Round(time.Millisecond))
	}
	t.Logf("stalled client disconnected after %v (err %v)", time.Since(start).Round(time.Millisecond), err)

	// A well-formed request on a fresh connection is still served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
