package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderClientIsDisconnected: a client that opens a connection and
// never finishes its request headers is cut off by the daemon's
// ReadHeaderTimeout, and a normal session on the same server keeps
// answering the whole time.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	hs := srv.HTTPServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("connection timeouts unset: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v; query deadlines are per-session, not per-connection", hs.WriteTimeout)
	}
	// Same wiring, a test-sized header deadline.
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "POST /v1/query HTTP/1.1\r\nHost: slow\r\n"); err != nil {
		t.Fatal(err)
	}
	cutOff := make(chan error, 1)
	go func() {
		// The server sends nothing useful and closes: draining the
		// connection ends in EOF, well before this client-side deadline.
		slow.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := io.Copy(io.Discard, slow)
		cutOff <- err
	}()

	cli := Dial("http://" + ln.Addr().String())
	if err := cli.Connect(context.Background(), "fast"); err != nil {
		t.Fatal(err)
	}
	defer cli.Close(context.Background())
	answered := 0
	for done := false; !done; {
		select {
		case err := <-cutOff:
			if err != nil {
				t.Fatalf("slow-header connection was not closed by the server: %v", err)
			}
			done = true
		default:
		}
		res, err := cli.Query(context.Background(), `SELECT count(*) AS c FROM kv`)
		if err != nil || res.NumRows() != 1 {
			t.Fatalf("normal session failed beside a slow-header client: %v", err)
		}
		answered++
	}
	if answered < 2 {
		t.Fatalf("normal session answered %d queries while the slow client was held", answered)
	}
}
