package runtime

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsSlowHeaders is the slowloris check: a client that opens
// a request and never finishes its headers is disconnected once the
// header timeout passes, instead of pinning a connection forever.
func TestServerDropsSlowHeaders(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv, addr, err := StartServer("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("server limits = header %v idle %v write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: pfm\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with unfinished headers still open after %v", time.Since(start))
	}
}
