package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"fremont/internal/netsim/pkt"
)

// tcpPair builds two hosts on one wire with a listener on b:7777 and
// returns the network and both nodes.
func tcpPair(t testing.TB, seed int64) (*Network, *Node, *Node) {
	t.Helper()
	n := New(seed)
	seg := n.NewSegment("wire", mustSubnet(t, "10.0.0.0/24"))
	// Keep the collision model out of protocol tests; loss tests opt in.
	seg.CollisionProb = 0
	a := n.NewNode("a")
	a.AddIface(seg, mustIP(t, "10.0.0.1"), pkt.MaskBits(24))
	b := n.NewNode("b")
	b.AddIface(seg, mustIP(t, "10.0.0.2"), pkt.MaskBits(24))
	return n, a, b
}

// runActors drives the gated simulation until every actor goroutine has
// reported, failing on the first actor error.
func runActors(t *testing.T, n *Network, d time.Duration, count int, done chan error) {
	t.Helper()
	n.RunGated(d)
	for i := 0; i < count; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("actor %d/%d did not finish within %v of virtual time", i+1, count, d)
		}
	}
}

func TestTCPHandshakeAndEcho(t *testing.T) {
	n, a, b := tcpPair(t, 42)
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)

	n.Go(func() {
		done <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			buf := make([]byte, 64)
			nr, err := conn.Read(buf)
			if err != nil {
				return err
			}
			_, err = conn.Write(bytes.ToUpper(buf[:nr]))
			return err
		}()
	})
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			if got := conn.RemoteAddr().String(); got != "10.0.0.2:7777" {
				return fmt.Errorf("remote addr %q", got)
			}
			if _, err := conn.Write([]byte("hello")); err != nil {
				return err
			}
			buf := make([]byte, 64)
			nr, err := io.ReadAtLeast(conn, buf, 5)
			if err != nil {
				return err
			}
			if string(buf[:nr]) != "HELLO" {
				return fmt.Errorf("echo = %q", buf[:nr])
			}
			return nil
		}()
	})
	runActors(t, n, 10*time.Second, 2, done)
}

// TestTCPLargeTransfer pushes well past MSS and both buffer sizes in each
// direction, exercising segmentation, window flow control and reassembly.
func TestTCPLargeTransfer(t *testing.T) {
	n, a, b := tcpPair(t, 7)
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	const total = 512 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan error, 2)

	n.Go(func() {
		done <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			got, err := io.ReadAll(conn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("received %d bytes, corrupt=%v", len(got), !bytes.Equal(got, payload))
			}
			return nil
		}()
	})
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 5*time.Second)
			if err != nil {
				return err
			}
			if _, err := conn.Write(payload); err != nil {
				return err
			}
			return conn.Close() // FIN flushes after buffered data
		}()
	})
	runActors(t, n, 5*time.Minute, 2, done)
}

// TestTCPRetransmitAfterLoss runs a transfer over a lossy wire and
// verifies both integrity and that the RTO path actually fired.
func TestTCPRetransmitAfterLoss(t *testing.T) {
	n, a, b := tcpPair(t, 99)
	n.Segments[0].RandomLoss = 0.10
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	const total = 64 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i >> 3)
	}
	done := make(chan error, 2)
	var clientConn *TCPConn

	n.Go(func() {
		done <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			got, err := io.ReadAll(conn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("corrupt transfer: %d bytes", len(got))
			}
			return nil
		}()
	})
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 30*time.Second)
			if err != nil {
				return err
			}
			clientConn = conn.(*TCPConn)
			if _, err := conn.Write(payload); err != nil {
				return err
			}
			return conn.Close()
		}()
	})
	runActors(t, n, 10*time.Minute, 2, done)
	if clientConn.Retransmits == 0 {
		t.Fatal("10% loss produced zero retransmissions")
	}
}

// TestTCPOutOfOrderDelivery injects a reordered segment directly and
// checks the reassembly queue stitches the stream back together.
func TestTCPOutOfOrderDelivery(t *testing.T) {
	n, a, b := tcpPair(t, 5)
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)

	n.Go(func() {
		done <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			got, err := io.ReadAll(conn)
			if err != nil {
				return err
			}
			if string(got) != "abcdef" {
				return fmt.Errorf("reassembled %q", got)
			}
			return nil
		}()
	})
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 5*time.Second)
			if err != nil {
				return err
			}
			c := conn.(*TCPConn)
			// Hand-deliver the second half before the first: encode real
			// segments and push them through the peer's receive path.
			n.Locked(func() {
				later := pkt.TCPSegment{
					SrcPort: c.key.localPort, DstPort: 7777,
					Seq: c.sndNxt + 3, Ack: c.rcvNxt,
					Flags: pkt.TCPFlagACK | pkt.TCPFlagPSH, Window: 0xffff,
					Payload: []byte("def"),
				}
				b.tcp.conns[tcpKey{7777, mustIP(t, "10.0.0.1"), c.key.localPort}].onSegment(&later)
				first := pkt.TCPSegment{
					SrcPort: c.key.localPort, DstPort: 7777,
					Seq: c.sndNxt, Ack: c.rcvNxt,
					Flags: pkt.TCPFlagACK | pkt.TCPFlagPSH, Window: 0xffff,
					Payload: []byte("abc"),
				}
				b.tcp.conns[tcpKey{7777, mustIP(t, "10.0.0.1"), c.key.localPort}].onSegment(&first)
				// Our side never sent these; resync local send state so
				// the FIN sequences correctly after them.
				c.sndNxt += 6
				c.sndUna = c.sndNxt
				c.sndBuf = nil
			})
			return conn.Close()
		}()
	})
	runActors(t, n, 30*time.Second, 2, done)
}

// TestTCPZeroWindowStallResume fills a tiny receive window, waits through
// a stall, then drains it and checks the transfer completes.
func TestTCPZeroWindowStallResume(t *testing.T) {
	n, a, b := tcpPair(t, 11)
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	ln.RecvWindow = 2048 // force zero-window with a small payload
	const total = 16 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan error, 2)

	n.Go(func() {
		done <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			// Stall: let the sender hit the zero window and sit on its
			// persist probe before we drain anything.
			n.GatedSleep(3 * time.Second)
			got, err := io.ReadAll(conn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("corrupt transfer after stall: %d bytes", len(got))
			}
			return nil
		}()
	})
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 5*time.Second)
			if err != nil {
				return err
			}
			if _, err := conn.Write(payload); err != nil {
				return err
			}
			return conn.Close()
		}()
	})
	runActors(t, n, 2*time.Minute, 2, done)
}

// TestTCPSimultaneousClose has both ends close together; both must walk
// FIN_WAIT_1 → CLOSING → TIME_WAIT and drain cleanly off the conn table.
func TestTCPSimultaneousClose(t *testing.T) {
	n, a, b := tcpPair(t, 3)
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	ready := make(chan net.Conn, 1)

	n.Go(func() {
		done <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			ready <- conn
			n.GatedSleep(time.Second)
			if err := conn.Close(); err != nil {
				return err
			}
			n.GatedSleep(5 * time.Second)
			if _, err := conn.Read(make([]byte, 1)); err != net.ErrClosed {
				return fmt.Errorf("read after close = %v", err)
			}
			return nil
		}()
	})
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 5*time.Second)
			if err != nil {
				return err
			}
			n.GatedSleep(time.Second)
			if err := conn.Close(); err != nil {
				return err
			}
			n.GatedSleep(5 * time.Second)
			return nil
		}()
	})
	runActors(t, n, 30*time.Second, 2, done)
	<-ready
	// Both FINs crossed; after TIME_WAIT both tables must be empty.
	if got := len(a.tcp.conns); got != 0 {
		t.Fatalf("client conn table has %d entries after close", got)
	}
	if got := len(b.tcp.conns); got != 0 {
		t.Fatalf("server conn table has %d entries after close", got)
	}
}

// TestTCPConnRefused checks RST generation for a port nobody listens on.
func TestTCPConnRefused(t *testing.T) {
	n, a, _ := tcpPair(t, 8)
	done := make(chan error, 1)
	n.Go(func() {
		done <- func() error {
			_, err := DialTCP(a, "10.0.0.2:9999", 5*time.Second)
			if err == nil {
				return fmt.Errorf("dial to closed port succeeded")
			}
			return nil
		}()
	})
	runActors(t, n, 10*time.Second, 1, done)
}

// TestTCPDialTimeout dials a host that is down and expects the virtual
// clock — not the wall clock — to bound the wait.
func TestTCPDialTimeout(t *testing.T) {
	n, a, b := tcpPair(t, 8)
	b.SetUp(false)
	done := make(chan error, 1)
	n.Go(func() {
		done <- func() error {
			start := n.GatedNow()
			_, err := DialTCP(a, "10.0.0.2:7777", 2*time.Second)
			if err == nil {
				return fmt.Errorf("dial to down host succeeded")
			}
			if waited := n.GatedNow().Sub(start); waited < 2*time.Second {
				return fmt.Errorf("timeout fired after only %v", waited)
			}
			return nil
		}()
	})
	runActors(t, n, 10*time.Second, 1, done)
}

// TestTCPDeterministicTransfer runs the same lossy transfer twice and
// requires identical virtual completion times and retransmit counts.
func TestTCPDeterministicTransfer(t *testing.T) {
	run := func() (time.Duration, int) {
		n, a, b := tcpPair(t, 1234)
		n.Segments[0].RandomLoss = 0.05
		ln, err := ListenTCP(b, 7777)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 32<<10)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		done := make(chan error, 2)
		var finished time.Duration
		var retransmits int
		n.Go(func() {
			done <- func() error {
				conn, err := ln.Accept()
				if err != nil {
					return err
				}
				defer conn.Close()
				got, err := io.ReadAll(conn)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("corrupt")
				}
				n.Locked(func() { finished = n.Sched.Now() })
				return nil
			}()
		})
		n.Go(func() {
			done <- func() error {
				conn, err := DialTCP(a, "10.0.0.2:7777", 30*time.Second)
				if err != nil {
					return err
				}
				if _, err := conn.Write(payload); err != nil {
					return err
				}
				err = conn.Close()
				retransmits = conn.(*TCPConn).Retransmits
				return err
			}()
		})
		runActors(t, n, 5*time.Minute, 2, done)
		return finished, retransmits
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("nondeterministic transfer: t=%v/%v retransmits=%d/%d", t1, t2, r1, r2)
	}
	if t1 == 0 {
		t.Fatal("transfer did not complete")
	}
}

// TestTCPLateUntrackedAcceptLoop serves a listener the way a real server
// does — an untracked accept loop that hands each conn to its own
// goroutine — but starts that loop late in real time. Virtual time must
// wait for it: without the listener's inherited token the client's
// request would sit unanswered until the run's deadline.
func TestTCPLateUntrackedAcceptLoop(t *testing.T) {
	n, a, b := tcpPair(t, 5)
	ln, err := ListenTCP(b, 7777)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 64)
				if nr, err := conn.Read(buf); err == nil {
					conn.Write(bytes.ToUpper(buf[:nr]))
				}
			}()
		}
	}()
	done := make(chan error, 1)
	n.Go(func() {
		done <- func() error {
			conn, err := DialTCP(a, "10.0.0.2:7777", 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("late")); err != nil {
				return err
			}
			buf := make([]byte, 64)
			nr, err := io.ReadAtLeast(conn, buf, 4)
			if err != nil {
				return err
			}
			if string(buf[:nr]) != "LATE" {
				return fmt.Errorf("echo = %q", buf[:nr])
			}
			return nil
		}()
	})
	runActors(t, n, 10*time.Second, 1, done)
}
