package serveapi

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	srv := NewHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts = %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
}

// TestHTTPServerDropsSlowHeaderClient checks that a client which starts a
// request but never finishes its headers is disconnected once the header
// timeout passes, instead of holding the connection open forever.
func TestHTTPServerDropsSlowHeaderClient(t *testing.T) {
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler must not run for an unfinished request")
	}))
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Request line and one header, but never the blank line ending them.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v; the server never dropped the client", time.Since(start))
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
}
