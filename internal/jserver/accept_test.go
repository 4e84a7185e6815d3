package jserver

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fremont/internal/jclient"
)

// flakyListener fails the first n Accept calls with a transient error
// (the shape EMFILE pressure produces) before delegating to the real
// listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept tcp: too many open files")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientErrors: before the backoff fix, the
// first transient Accept error killed the accept loop and the server
// went silently deaf.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.failures.Store(3)

	s := New(nil)
	s.ln = fl
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() { s.Close() })

	c, err := jclient.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server deaf after transient accept errors: %v", err)
	}
	if fl.failures.Load() >= 0 {
		t.Fatal("flaky listener never exercised its failures")
	}
}

// TestConnectionGoroutinesExit: a closed connection must leave no
// goroutine behind — its shutdown watcher included, which must not keep
// waiting for server Close once the connection has ended.
func TestConnectionGoroutinesExit(t *testing.T) {
	s := New(nil)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		c, err := jclient.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	open := s.obs.Gauge("jserver_open_connections")
	deadline := time.Now().Add(5 * time.Second)
	for open.Value() != 0 || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after 50 closed connections: %d open, %d goroutines (baseline %d)",
				open.Value(), runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
