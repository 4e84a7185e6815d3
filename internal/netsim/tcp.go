package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"fremont/internal/netsim/pkt"
	"fremont/internal/netsim/sim"
)

// Userspace TCP over the simulated IP stack: three-way handshake,
// sequence/ack tracking, RTO-based retransmission on a cancellable sim
// Timer, receive-window flow control with a zero-window probe, out-of-order
// reassembly, and FIN teardown (including simultaneous close). No
// congestion control or SACK — at sim scale the receive window is the only
// pacing that matters, and loss recovery by RTO is exactly the behaviour
// the emulytics experiments want to exercise.
//
// DialTCP and ListenTCP return net.Conn / net.Listener implementations
// driven by the virtual clock. All conn state is guarded by the network's
// gate mutex: protocol events run inside RunGated (which holds it), and
// every blocking operation from an external goroutine takes it, parking
// through the gate while blocked. TCP endpoints therefore require the
// simulation to be driven with RunGated, not Run.

const (
	tcpMSS          = 1400
	tcpSendBufCap   = 256 << 10
	tcpRecvBufCap   = 32 << 10
	tcpOOOCap       = 128 << 10
	tcpInitialRTO   = 200 * time.Millisecond
	tcpMaxRTO       = 10 * time.Second
	tcpMaxRetries   = 12
	tcpTimeWaitDur  = 500 * time.Millisecond
	tcpBacklogLimit = 64
)

// ErrConnReset is returned from reads/writes on a connection the peer reset.
var ErrConnReset = errors.New("netsim: connection reset by peer")

type tcpState int

const (
	tcpClosed tcpState = iota
	tcpSynSent
	tcpSynRcvd
	tcpEstablished
	tcpFinWait1
	tcpFinWait2
	tcpCloseWait
	tcpClosing
	tcpLastAck
	tcpTimeWait
)

func (s tcpState) String() string {
	switch s {
	case tcpClosed:
		return "CLOSED"
	case tcpSynSent:
		return "SYN_SENT"
	case tcpSynRcvd:
		return "SYN_RCVD"
	case tcpEstablished:
		return "ESTABLISHED"
	case tcpFinWait1:
		return "FIN_WAIT_1"
	case tcpFinWait2:
		return "FIN_WAIT_2"
	case tcpCloseWait:
		return "CLOSE_WAIT"
	case tcpClosing:
		return "CLOSING"
	case tcpLastAck:
		return "LAST_ACK"
	case tcpTimeWait:
		return "TIME_WAIT"
	}
	return "?"
}

// tcpKey identifies a connection from the owning node's point of view.
// Listeners match on local port alone, so the local IP is not part of the
// key (a node's ports are one namespace across its interfaces, like a
// host with a wildcard bind).
type tcpKey struct {
	localPort  uint16
	remoteIP   pkt.IP
	remotePort uint16
}

func (k tcpKey) String() string {
	return fmt.Sprintf(":%d<->%s:%d", k.localPort, k.remoteIP, k.remotePort)
}

// tcpHost is the per-node TCP endpoint table, created lazily on first use.
type tcpHost struct {
	listeners   map[uint16]*TCPListener
	conns       map[tcpKey]*TCPConn
	eph         uint16
	issSeq      uint32
	retransmits int
}

func (nd *Node) tcpHost() *tcpHost {
	if nd.tcp == nil {
		nd.tcp = &tcpHost{
			listeners: map[uint16]*TCPListener{},
			conns:     map[tcpKey]*TCPConn{},
		}
	}
	return nd.tcp
}

// nextISS allocates a deterministic initial send sequence number.
func (th *tcpHost) nextISS() uint32 {
	th.issSeq += 0x3d54a9
	return th.issSeq
}

// TCPAddr is the net.Addr for simulated TCP endpoints.
type TCPAddr struct {
	IP   pkt.IP
	Port uint16
}

func (a TCPAddr) Network() string { return "tcp" }
func (a TCPAddr) String() string  { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

func parseHostPort(addr string) (pkt.IP, uint16, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("netsim: address %q missing port", addr)
	}
	ip, err := pkt.ParseIP(addr[:i])
	if err != nil {
		return 0, 0, err
	}
	port, err := strconv.Atoi(addr[i+1:])
	if err != nil || port <= 0 || port > 0xffff {
		return 0, 0, fmt.Errorf("netsim: bad port in %q", addr)
	}
	return ip, uint16(port), nil
}

// seq arithmetic on the 32-bit circle.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// --- Listener ---------------------------------------------------------

// TCPListener accepts simulated TCP connections on a node port.
type TCPListener struct {
	node *Node
	port uint16
	ip   pkt.IP

	// RecvWindow overrides the receive buffer capacity of accepted
	// connections (for flow-control experiments). Zero means default.
	// Set before connections arrive.
	RecvWindow int

	backlog   []*TCPConn
	pending   int // conns in SYN_RCVD on our behalf
	acceptors []*gwaiter
	tokens    tokenPool
	closed    bool

	inheritPending bool // ListenTCP's token awaits the first Accept
}

// ListenTCP binds a listener on port across all of the node's interfaces.
func ListenTCP(nd *Node, port uint16) (*TCPListener, error) {
	n := nd.net
	n.gate.mu.Lock()
	defer n.gate.mu.Unlock()
	th := nd.tcpHost()
	if port == 0 {
		return nil, fmt.Errorf("netsim: listen port must be nonzero")
	}
	if _, dup := th.listeners[port]; dup {
		return nil, fmt.Errorf("netsim: %s port %d already listening", nd.Name, port)
	}
	if len(nd.Ifaces) == 0 {
		return nil, fmt.Errorf("netsim: %s has no interfaces", nd.Name)
	}
	l := &TCPListener{node: nd, port: port, ip: nd.Ifaces[0].IP}
	th.listeners[port] = l
	// Made outside a tracked goroutine, the listener is about to be
	// served by an accept loop the gate cannot see being born: hold a
	// token for it until its first Accept (cf. TCPConn.claim).
	if g := n.gate; !g.has(curGID()) {
		l.inheritPending = true
		g.grantPool(&l.tokens)
	}
	return l, nil
}

// Addr implements net.Listener.
func (l *TCPListener) Addr() net.Addr { return TCPAddr{IP: l.ip, Port: l.port} }

// Accept implements net.Listener. It parks the calling goroutine until the
// handshake for a queued connection completes.
func (l *TCPListener) Accept() (net.Conn, error) {
	n := l.node.net
	g := n.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	if l.inheritPending {
		// An untracked acceptor keeps ListenTCP's token to park with.
		l.inheritPending = false
		if g.has(curGID()) {
			g.releasePool(&l.tokens)
		}
	}
	for {
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			c.lst = nil
			// When the acceptor is a goroutine the gate cannot track (the
			// server's own accept loop), the conn is about to be handed to
			// an equally invisible handler goroutine: deposit a runnable
			// token on the conn so the gate waits for that handler to
			// reach its first park (see TCPConn.claim). A tracked acceptor
			// is already accounted for and needs no extra token.
			if !g.has(curGID()) {
				c.inheritPending = true
				g.grantPool(&c.tokens)
			}
			return c, nil
		}
		if l.closed {
			return nil, net.ErrClosed
		}
		w := &gwaiter{}
		l.acceptors = append(l.acceptors, w)
		g.park(w, &l.tokens)
		l.dropAcceptor(w)
	}
}

func (l *TCPListener) dropAcceptor(w *gwaiter) {
	for i, x := range l.acceptors {
		if x == w {
			l.acceptors = append(l.acceptors[:i], l.acceptors[i+1:]...)
			return
		}
	}
}

// Close implements net.Listener: stops accepting, aborts handshakes in
// flight and queued-but-unaccepted connections.
func (l *TCPListener) Close() error {
	n := l.node.net
	g := n.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	th := l.node.tcpHost()
	delete(th.listeners, l.port)
	// Abort connections still owned by the listener, in deterministic order.
	var doomed []*TCPConn
	for _, c := range th.conns {
		if c.lst == l {
			doomed = append(doomed, c)
		}
	}
	doomed = append(doomed, l.backlog...)
	l.backlog = nil
	sort.Slice(doomed, func(i, j int) bool {
		return doomed[i].key.remoteIP < doomed[j].key.remoteIP ||
			(doomed[i].key.remoteIP == doomed[j].key.remoteIP && doomed[i].key.remotePort < doomed[j].key.remotePort)
	})
	for _, c := range doomed {
		c.sendSeg(pkt.TCPFlagRST|pkt.TCPFlagACK, c.sndNxt, nil)
		c.fail(ErrConnReset)
	}
	for _, w := range l.acceptors {
		g.wake(w)
	}
	l.acceptors = nil
	for l.tokens.n > 0 {
		g.releasePool(&l.tokens)
	}
	return nil
}

// onSYN handles a connection request addressed to the listener.
func (l *TCPListener) onSYN(localIP pkt.IP, srcIP pkt.IP, seg *pkt.TCPSegment) {
	th := l.node.tcpHost()
	if l.pending+len(l.backlog) >= tcpBacklogLimit {
		return // silently dropped; the client's SYN retransmit will retry
	}
	c := newTCPConn(l.node, tcpKey{localPort: seg.DstPort, remoteIP: srcIP, remotePort: seg.SrcPort}, localIP)
	if l.RecvWindow > 0 {
		c.rcvCap = l.RecvWindow
	}
	c.lst = l
	c.state = tcpSynRcvd
	c.rcvNxt = seg.Seq + 1
	c.sndWnd = uint32(seg.Window)
	th.conns[c.key] = c
	l.pending++
	c.sendSeg(pkt.TCPFlagSYN|pkt.TCPFlagACK, c.iss, nil)
	c.sndNxt = c.iss + 1
	c.armRTO()
}

// connReady moves an established connection to the accept queue.
func (l *TCPListener) connReady(c *TCPConn) {
	l.pending--
	l.backlog = append(l.backlog, c)
	g := l.node.net.gate
	for _, w := range l.acceptors {
		if !w.woken {
			g.wake(w)
			break
		}
	}
}

// --- Connection -------------------------------------------------------

type oooSeg struct {
	seq  uint32
	data []byte
}

// TCPConn is a simulated TCP connection satisfying net.Conn.
type TCPConn struct {
	node    *Node
	key     tcpKey
	localIP pkt.IP
	state   tcpState
	lst     *TCPListener // owning listener while un-accepted

	// Send side. sndBuf[0] holds the byte at sequence sndUna (once
	// established); SYN and FIN occupy phantom sequence slots handled in
	// the state machine, not the buffer.
	iss       uint32
	sndBuf    []byte
	sndUna    uint32
	sndNxt    uint32
	sndWnd    uint32
	finQueued bool
	finSent   bool
	finAcked  bool
	finSeq    uint32

	// Retransmission.
	rto     time.Duration
	retries int
	rtxGen  uint64
	rtx     sim.Timer
	twGen   uint64
	tw      sim.Timer

	// Receive side.
	rcvCap     int
	rcvBuf     []byte
	rcvNxt     uint32
	advertised uint32
	ooo        []oooSeg
	oooBytes   int
	finPend    bool
	finPendSeq uint32
	rcvFIN     bool

	// Lifecycle.
	err    error
	closed bool

	readers []*gwaiter
	writers []*gwaiter
	opener  *gwaiter
	tokens  tokenPool

	inheritPending bool

	// Virtual-time absolute deadlines; zero means none.
	rdDeadline time.Duration
	wrDeadline time.Duration

	// Retransmits counts RTO-driven resends, for transcripts and tests.
	Retransmits int
}

func newTCPConn(nd *Node, key tcpKey, localIP pkt.IP) *TCPConn {
	return &TCPConn{
		node:    nd,
		key:     key,
		localIP: localIP,
		iss:     nd.tcpHost().nextISS(),
		rto:     tcpInitialRTO,
		rcvCap:  tcpRecvBufCap,
	}
}

func (c *TCPConn) nw() *Network          { return c.node.net }
func (c *TCPConn) sched() *sim.Scheduler { return c.node.net.Sched }

// DialTCP opens a connection from nd to addr ("a.b.c.d:port"), blocking
// (under the virtual clock) until the handshake completes or timeout
// expires. Call it from a gated goroutine while RunGated drives the clock.
func DialTCP(nd *Node, addr string, timeout time.Duration) (net.Conn, error) {
	rip, rport, err := parseHostPort(addr)
	if err != nil {
		return nil, err
	}
	n := nd.net
	g := n.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := nd.lookupRoute(rip)
	if !ok {
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, ErrNoRoute)
	}
	th := nd.tcpHost()
	var key tcpKey
	for {
		th.eph++
		port := 33000 + th.eph%16384
		key = tcpKey{localPort: port, remoteIP: rip, remotePort: rport}
		if _, busy := th.conns[key]; !busy {
			if _, listening := th.listeners[port]; !listening {
				break
			}
		}
	}
	c := newTCPConn(nd, key, r.Iface.IP)
	c.state = tcpSynSent
	th.conns[key] = c
	c.sendSeg(pkt.TCPFlagSYN, c.iss, nil)
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.armRTO()

	w := &gwaiter{}
	if timeout > 0 {
		n.armTimeout(w, timeout)
	}
	c.opener = w
	g.park(w, nil)
	c.opener = nil
	if w.timedOut {
		c.drop()
		return nil, fmt.Errorf("netsim: dial %s: i/o timeout", addr)
	}
	if c.err != nil {
		return nil, fmt.Errorf("netsim: dial %s: %w", addr, c.err)
	}
	if c.state != tcpEstablished {
		return nil, fmt.Errorf("netsim: dial %s: connection closed during handshake", addr)
	}
	return c, nil
}

// Dialer returns a dial function bound to nd, shaped for
// jclient.WithDialer: the transport-agnostic bridge between the real
// client code and the simulated network.
func Dialer(nd *Node, timeout time.Duration) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return DialTCP(nd, addr, timeout) }
}

// claim resolves the pending inherited token deposited by Accept. If the
// first goroutine to touch the conn is one the gate already tracks (a
// harness actor serving its own accept), the anonymous token is redundant
// and released; an untracked goroutine (a spawned server handler) keeps it
// to consume at its first park. Called with gate.mu held.
func (c *TCPConn) claim() {
	if !c.inheritPending {
		return
	}
	c.inheritPending = false
	g := c.nw().gate
	if g.has(curGID()) {
		g.releasePool(&c.tokens)
	}
}

// LocalAddr implements net.Conn.
func (c *TCPConn) LocalAddr() net.Addr { return TCPAddr{IP: c.localIP, Port: c.key.localPort} }

// RemoteAddr implements net.Conn. Its String() is re-dialable through the
// same node, which is what jclient's auto-resume path relies on.
func (c *TCPConn) RemoteAddr() net.Addr {
	return TCPAddr{IP: c.key.remoteIP, Port: c.key.remotePort}
}

// State reports the connection state name (for transcripts and tests).
func (c *TCPConn) State() string {
	c.nw().gate.mu.Lock()
	defer c.nw().gate.mu.Unlock()
	return c.state.String()
}

// SetDeadline implements net.Conn.
func (c *TCPConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn. The wall-clock deadline is mapped
// onto the virtual clock by its distance from real now, which is how
// callers like the subscription hub build deadlines (time.Now().Add(d)).
func (c *TCPConn) SetReadDeadline(t time.Time) error {
	g := c.nw().gate
	g.mu.Lock()
	defer g.mu.Unlock()
	c.claim()
	c.rdDeadline = c.virtualDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *TCPConn) SetWriteDeadline(t time.Time) error {
	g := c.nw().gate
	g.mu.Lock()
	defer g.mu.Unlock()
	c.claim()
	c.wrDeadline = c.virtualDeadline(t)
	return nil
}

func (c *TCPConn) virtualDeadline(t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	d := time.Until(t)
	if d < 0 {
		d = time.Nanosecond
	}
	return c.sched().Now() + d
}

// Read implements net.Conn.
func (c *TCPConn) Read(b []byte) (int, error) {
	g := c.nw().gate
	g.mu.Lock()
	defer g.mu.Unlock()
	c.claim()
	for {
		if c.closed {
			return 0, net.ErrClosed
		}
		if len(c.rcvBuf) > 0 {
			n := copy(b, c.rcvBuf)
			c.rcvBuf = c.rcvBuf[n:]
			if len(c.rcvBuf) == 0 {
				c.rcvBuf = nil
			}
			c.maybeWindowUpdate()
			return n, nil
		}
		if c.rcvFIN {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		w := &gwaiter{}
		if c.rdDeadline != 0 {
			now := c.sched().Now()
			if now >= c.rdDeadline {
				return 0, os.ErrDeadlineExceeded
			}
			c.nw().armTimeout(w, c.rdDeadline-now)
		}
		c.readers = append(c.readers, w)
		g.park(w, &c.tokens)
		dropWaiter(&c.readers, w)
		if w.timedOut {
			return 0, os.ErrDeadlineExceeded
		}
	}
}

// Write implements net.Conn. It queues data into the send buffer, pumping
// segments as the peer's window allows, and blocks when the buffer fills.
func (c *TCPConn) Write(b []byte) (int, error) {
	g := c.nw().gate
	g.mu.Lock()
	defer g.mu.Unlock()
	c.claim()
	total := 0
	for len(b) > 0 {
		if c.closed || c.finQueued {
			return total, net.ErrClosed
		}
		if c.err != nil {
			return total, c.err
		}
		if c.state != tcpEstablished && c.state != tcpCloseWait {
			if c.state == tcpSynSent || c.state == tcpSynRcvd {
				// Not yet established (possible only via races with
				// Accept); wait like a full buffer would.
			} else {
				return total, net.ErrClosed
			}
		}
		space := tcpSendBufCap - len(c.sndBuf)
		if space > 0 && (c.state == tcpEstablished || c.state == tcpCloseWait) {
			n := len(b)
			if n > space {
				n = space
			}
			c.sndBuf = append(c.sndBuf, b[:n]...)
			b = b[n:]
			total += n
			c.pump()
			continue
		}
		w := &gwaiter{}
		if c.wrDeadline != 0 {
			now := c.sched().Now()
			if now >= c.wrDeadline {
				return total, os.ErrDeadlineExceeded
			}
			c.nw().armTimeout(w, c.wrDeadline-now)
		}
		c.writers = append(c.writers, w)
		g.park(w, &c.tokens)
		dropWaiter(&c.writers, w)
		if w.timedOut {
			return total, os.ErrDeadlineExceeded
		}
	}
	return total, nil
}

// Close implements net.Conn: graceful shutdown. Buffered data is still
// delivered, followed by FIN; blocked readers and writers are released.
func (c *TCPConn) Close() error {
	g := c.nw().gate
	g.mu.Lock()
	defer g.mu.Unlock()
	c.inheritPending = false
	// Handlers exit through Close rather than another park; return any
	// runnable tokens still attributed to this connection.
	for c.tokens.n > 0 {
		g.releasePool(&c.tokens)
	}
	if c.closed {
		return nil
	}
	c.closed = true
	switch c.state {
	case tcpSynSent, tcpSynRcvd:
		c.sendSeg(pkt.TCPFlagRST|pkt.TCPFlagACK, c.sndNxt, nil)
		c.fail(net.ErrClosed)
	case tcpEstablished, tcpCloseWait:
		c.finQueued = true
		c.pump()
	}
	c.wakeAll()
	return nil
}

func (c *TCPConn) wakeAll() {
	g := c.nw().gate
	for _, w := range c.readers {
		g.wake(w)
	}
	for _, w := range c.writers {
		g.wake(w)
	}
	if c.opener != nil {
		g.wake(c.opener)
	}
}

func dropWaiter(list *[]*gwaiter, w *gwaiter) {
	for i, x := range *list {
		if x == w {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}

// --- Protocol engine (runs under gate.mu, inside simulation events) ----

// sendSeg emits one segment with the current ack/window state.
func (c *TCPConn) sendSeg(flags byte, seq uint32, payload []byte) {
	wnd := c.rcvSpace()
	if wnd > 0xffff {
		wnd = 0xffff
	}
	c.advertised = uint32(wnd)
	seg := pkt.TCPSegment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  uint16(wnd),
		Payload: payload,
	}
	h := pkt.IPv4Header{Protocol: pkt.ProtoTCP, Src: c.localIP, Dst: c.key.remoteIP}
	// Send errors (node down, no route during a partition) are dropped
	// packets as far as TCP is concerned; the RTO recovers or gives up.
	_ = c.node.SendIP(h, seg.Encode(c.localIP, c.key.remoteIP))
}

func (c *TCPConn) rcvSpace() int {
	s := c.rcvCap - len(c.rcvBuf)
	if s < 0 {
		s = 0
	}
	return s
}

// pump transmits whatever the peer's window (and MSS) allows, then FIN if
// queued and everything else is out.
func (c *TCPConn) pump() {
	if c.state != tcpEstablished && c.state != tcpCloseWait {
		return
	}
	for {
		inFlight := c.sndNxt - c.sndUna
		avail := uint32(len(c.sndBuf)) - inFlight
		if avail == 0 {
			if c.finQueued && !c.finSent {
				c.finSeq = c.sndNxt
				c.sendSeg(pkt.TCPFlagFIN|pkt.TCPFlagACK, c.sndNxt, nil)
				c.sndNxt++
				c.finSent = true
				if c.state == tcpEstablished {
					c.state = tcpFinWait1
				} else {
					c.state = tcpLastAck
				}
				c.armRTO()
			}
			return
		}
		var usable uint32
		if c.sndWnd > inFlight {
			usable = c.sndWnd - inFlight
		}
		n := avail
		if n > usable {
			n = usable
		}
		if n > tcpMSS {
			n = tcpMSS
		}
		if n == 0 {
			// Zero (or exhausted) window with pending data and nothing in
			// flight: send a 1-byte probe so a lost window update can
			// never stall the connection; the RTO keeps probing.
			if inFlight == 0 {
				off := c.sndNxt - c.sndUna
				c.sendSeg(pkt.TCPFlagACK, c.sndNxt, c.sndBuf[off:off+1])
				c.sndNxt++
				c.armRTO()
			}
			return
		}
		off := c.sndNxt - c.sndUna
		c.sendSeg(pkt.TCPFlagACK|pkt.TCPFlagPSH, c.sndNxt, c.sndBuf[off:off+n])
		c.sndNxt += n
		c.armRTO()
	}
}

// armRTO starts the retransmission timer if it is not already pending.
func (c *TCPConn) armRTO() {
	if c.rtx != (sim.Timer{}) {
		return
	}
	c.rtxGen++
	c.rtx = c.sched().AfterEventTimer(c.rto, tcpConnRTO, c, c.rtxGen)
}

func (c *TCPConn) stopRTO() {
	if c.rtx != (sim.Timer{}) {
		c.rtx.Stop()
		c.rtx = sim.Timer{}
	}
	c.rtxGen++
}

// restartRTO resets backoff after forward progress.
func (c *TCPConn) restartRTO() {
	c.stopRTO()
	c.retries = 0
	c.rto = tcpInitialRTO
	if c.outstanding() {
		c.armRTO()
	}
}

func (c *TCPConn) outstanding() bool {
	if c.state == tcpSynSent || c.state == tcpSynRcvd {
		return true
	}
	return c.sndNxt != c.sndUna
}

// tcpConnRTO is the pre-bound retransmission timeout handler.
func tcpConnRTO(arg any, aux uint64) {
	c := arg.(*TCPConn)
	if aux != c.rtxGen || c.state == tcpClosed {
		return
	}
	c.rtx = sim.Timer{}
	if !c.outstanding() {
		return
	}
	c.retries++
	if c.retries > tcpMaxRetries {
		c.sendSeg(pkt.TCPFlagRST|pkt.TCPFlagACK, c.sndNxt, nil)
		c.fail(fmt.Errorf("netsim: %s: connection timed out", c.key))
		return
	}
	c.rto *= 2
	if c.rto > tcpMaxRTO {
		c.rto = tcpMaxRTO
	}
	c.Retransmits++
	c.node.tcpHost().retransmits++
	switch c.state {
	case tcpSynSent:
		c.sendSeg(pkt.TCPFlagSYN, c.iss, nil)
	case tcpSynRcvd:
		c.sendSeg(pkt.TCPFlagSYN|pkt.TCPFlagACK, c.iss, nil)
	default:
		unacked := c.sndNxt - c.sndUna
		dataUnacked := unacked
		if c.finSent && !c.finAcked && dataUnacked > 0 {
			dataUnacked-- // FIN occupies the last sequence slot
		}
		if dataUnacked > 0 {
			n := dataUnacked
			if n > tcpMSS {
				n = tcpMSS
			}
			c.sendSeg(pkt.TCPFlagACK|pkt.TCPFlagPSH, c.sndUna, c.sndBuf[:n])
		} else if c.finSent && !c.finAcked {
			c.sendSeg(pkt.TCPFlagFIN|pkt.TCPFlagACK, c.finSeq, nil)
		}
	}
	c.armRTO()
}

// tcpConnTimeWait expires the TIME_WAIT state.
func tcpConnTimeWait(arg any, aux uint64) {
	c := arg.(*TCPConn)
	if aux != c.twGen || c.state != tcpTimeWait {
		return
	}
	c.drop()
}

func (c *TCPConn) enterTimeWait() {
	c.state = tcpTimeWait
	c.stopRTO()
	c.twGen++
	c.tw = c.sched().AfterEventTimer(tcpTimeWaitDur, tcpConnTimeWait, c, c.twGen)
}

// drop removes the connection from the node's table and stops timers.
func (c *TCPConn) drop() {
	c.stopRTO()
	if c.tw != (sim.Timer{}) {
		c.tw.Stop()
		c.tw = sim.Timer{}
	}
	c.twGen++
	c.state = tcpClosed
	if c.lst != nil {
		c.lst.pending--
		c.lst = nil
	}
	th := c.node.tcp
	if th != nil && th.conns[c.key] == c {
		delete(th.conns, c.key)
	}
}

// fail tears the connection down with err and releases all blocked callers.
func (c *TCPConn) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.drop()
	c.wakeAll()
}

// onSegment is the receive-path state machine.
func (c *TCPConn) onSegment(seg *pkt.TCPSegment) {
	if seg.Flags&pkt.TCPFlagRST != 0 {
		if c.state == tcpSynSent && seg.Ack != c.iss+1 {
			return // RST not for our SYN
		}
		if c.state == tcpTimeWait {
			c.drop()
			return
		}
		c.fail(ErrConnReset)
		return
	}
	switch c.state {
	case tcpSynSent:
		if seg.Flags&pkt.TCPFlagSYN != 0 && seg.Flags&pkt.TCPFlagACK != 0 && seg.Ack == c.iss+1 {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = c.iss + 1
			c.sndNxt = c.iss + 1
			c.sndWnd = uint32(seg.Window)
			c.state = tcpEstablished
			c.restartRTO()
			c.sendSeg(pkt.TCPFlagACK, c.sndNxt, nil)
			if c.opener != nil {
				c.nw().gate.wake(c.opener)
			}
			c.pump()
		}
		return
	case tcpSynRcvd:
		if seg.Flags&pkt.TCPFlagSYN != 0 && seg.Flags&pkt.TCPFlagACK == 0 {
			// Duplicate SYN: our SYN-ACK was lost.
			c.sendSeg(pkt.TCPFlagSYN|pkt.TCPFlagACK, c.iss, nil)
			return
		}
		if seg.Flags&pkt.TCPFlagACK == 0 || seg.Ack != c.iss+1 {
			return
		}
		c.sndUna = c.iss + 1
		c.sndWnd = uint32(seg.Window)
		c.state = tcpEstablished
		c.restartRTO()
		if c.lst != nil {
			c.lst.connReady(c)
		}
		// Fall through: the handshake ACK may carry data.
	case tcpTimeWait:
		// Re-ACK a retransmitted FIN; nothing else matters here.
		if seg.Flags&pkt.TCPFlagFIN != 0 {
			c.sendSeg(pkt.TCPFlagACK, c.sndNxt, nil)
		}
		return
	case tcpClosed:
		return
	}

	progressed := false
	if seg.Flags&pkt.TCPFlagACK != 0 && seqLE(c.sndUna, seg.Ack) && seqLE(seg.Ack, c.sndNxt) {
		if seqLT(c.sndUna, seg.Ack) {
			acked := seg.Ack - c.sndUna
			dataAcked := acked
			if dataAcked > uint32(len(c.sndBuf)) {
				dataAcked = uint32(len(c.sndBuf)) // FIN's phantom slot
			}
			c.sndBuf = c.sndBuf[dataAcked:]
			if len(c.sndBuf) == 0 {
				c.sndBuf = nil
			}
			c.sndUna = seg.Ack
			if c.finSent && seg.Ack == c.finSeq+1 {
				c.finAcked = true
			}
			progressed = true
		}
		c.sndWnd = uint32(seg.Window)
	}

	gotData := c.acceptData(seg)

	if progressed {
		c.restartRTO()
		switch {
		case c.state == tcpFinWait1 && c.finAcked:
			c.state = tcpFinWait2
		case c.state == tcpClosing && c.finAcked:
			c.enterTimeWait()
		case c.state == tcpLastAck && c.finAcked:
			c.drop()
			return
		}
		// Freed buffer space: release blocked writers.
		g := c.nw().gate
		for _, w := range c.writers {
			g.wake(w)
		}
	}

	if gotData {
		// Acknowledge received data (and any FIN) with the updated window.
		c.sendSeg(pkt.TCPFlagACK, c.sndNxt, nil)
		g := c.nw().gate
		for _, w := range c.readers {
			g.wake(w)
		}
	}

	c.pump()
}

// acceptData queues in-order payload, stashes out-of-order payload, and
// sequences FIN. Returns true if an ACK should be generated.
func (c *TCPConn) acceptData(seg *pkt.TCPSegment) bool {
	acked := false
	if len(seg.Payload) > 0 {
		if seqLE(seg.Seq, c.rcvNxt) {
			skip := c.rcvNxt - seg.Seq
			if skip < uint32(len(seg.Payload)) {
				rest := seg.Payload[skip:]
				space := c.rcvSpace()
				take := len(rest)
				if take > space {
					take = space // overflow dropped; sender retransmits
				}
				c.rcvBuf = append(c.rcvBuf, rest[:take]...)
				c.rcvNxt += uint32(take)
				c.drainOOO()
			}
			acked = true // even pure duplicates refresh the peer's view
		} else {
			// Out of order: hold a copy for reassembly, bounded.
			if c.oooBytes+len(seg.Payload) <= tcpOOOCap && len(c.ooo) < 64 {
				cp := append([]byte(nil), seg.Payload...)
				c.ooo = append(c.ooo, oooSeg{seq: seg.Seq, data: cp})
				c.oooBytes += len(cp)
				sort.Slice(c.ooo, func(i, j int) bool { return seqLT(c.ooo[i].seq, c.ooo[j].seq) })
			}
			acked = true // duplicate ACK tells the peer where the hole is
		}
	}
	if seg.Flags&pkt.TCPFlagFIN != 0 && !c.rcvFIN {
		finSeq := seg.Seq + uint32(len(seg.Payload))
		if finSeq == c.rcvNxt {
			c.consumeFIN()
		} else if seqLT(c.rcvNxt, finSeq) {
			c.finPend = true
			c.finPendSeq = finSeq
		}
		acked = true
	}
	return acked
}

// drainOOO merges stashed segments that have become contiguous.
func (c *TCPConn) drainOOO() {
	for len(c.ooo) > 0 {
		e := c.ooo[0]
		if seqLT(c.rcvNxt, e.seq) {
			break
		}
		c.ooo = c.ooo[1:]
		c.oooBytes -= len(e.data)
		skip := c.rcvNxt - e.seq
		if skip >= uint32(len(e.data)) {
			continue
		}
		rest := e.data[skip:]
		space := c.rcvSpace()
		take := len(rest)
		if take > space {
			take = space
		}
		c.rcvBuf = append(c.rcvBuf, rest[:take]...)
		c.rcvNxt += uint32(take)
		if take < len(rest) {
			break // out of space; sender will retransmit the rest
		}
	}
	if c.finPend && c.rcvNxt == c.finPendSeq {
		c.consumeFIN()
	}
}

// consumeFIN sequences the peer's FIN into the stream.
func (c *TCPConn) consumeFIN() {
	c.rcvNxt++
	c.rcvFIN = true
	c.finPend = false
	switch c.state {
	case tcpEstablished:
		c.state = tcpCloseWait
	case tcpFinWait1:
		// Peer's FIN before the ACK of ours: simultaneous close.
		c.state = tcpClosing
	case tcpFinWait2:
		c.enterTimeWait()
	}
	g := c.nw().gate
	for _, w := range c.readers {
		g.wake(w)
	}
}

// maybeWindowUpdate announces newly freed receive space after a Read, so a
// sender stalled on zero window resumes without waiting for its probe.
func (c *TCPConn) maybeWindowUpdate() {
	if c.state != tcpEstablished && c.state != tcpFinWait1 && c.state != tcpFinWait2 {
		return
	}
	space := uint32(c.rcvSpace())
	if (c.advertised == 0 && space > 0) || space >= c.advertised+uint32(c.rcvCap)/2 {
		c.sendSeg(pkt.TCPFlagACK, c.sndNxt, nil)
	}
}

// --- Node integration -------------------------------------------------

// deliverTCP dispatches a TCP segment to a connection or listener, or
// answers with RST. Payload bytes are copied into connection buffers, so
// the frame is never retained.
func (nd *Node) deliverTCP(ifc *Iface, p *pkt.IPv4Packet) bool {
	if !nd.HasIP(p.Header.Dst) {
		return false // broadcast or misdelivered; TCP ignores it
	}
	var seg pkt.TCPSegment
	if pkt.DecodeTCPInto(&seg, p.Payload, p.Header.Src, p.Header.Dst) != nil {
		return false
	}
	th := nd.tcp
	if th != nil {
		key := tcpKey{localPort: seg.DstPort, remoteIP: p.Header.Src, remotePort: seg.SrcPort}
		if c, ok := th.conns[key]; ok {
			c.onSegment(&seg)
			return false
		}
		if l, ok := th.listeners[seg.DstPort]; ok && !l.closed &&
			seg.Flags&pkt.TCPFlagSYN != 0 && seg.Flags&pkt.TCPFlagACK == 0 {
			l.onSYN(p.Header.Dst, p.Header.Src, &seg)
			return false
		}
	}
	nd.sendTCPRST(p, &seg)
	return false
}

// sendTCPRST answers a segment addressed to nothing (closed port, vanished
// connection) per RFC 793 reset generation.
func (nd *Node) sendTCPRST(p *pkt.IPv4Packet, seg *pkt.TCPSegment) {
	if seg.Flags&pkt.TCPFlagRST != 0 {
		return
	}
	rst := pkt.TCPSegment{SrcPort: seg.DstPort, DstPort: seg.SrcPort}
	if seg.Flags&pkt.TCPFlagACK != 0 {
		rst.Seq = seg.Ack
		rst.Flags = pkt.TCPFlagRST
	} else {
		adv := uint32(len(seg.Payload))
		if seg.Flags&pkt.TCPFlagSYN != 0 {
			adv++
		}
		if seg.Flags&pkt.TCPFlagFIN != 0 {
			adv++
		}
		rst.Ack = seg.Seq + adv
		rst.Flags = pkt.TCPFlagRST | pkt.TCPFlagACK
	}
	h := pkt.IPv4Header{Protocol: pkt.ProtoTCP, Src: p.Header.Dst, Dst: p.Header.Src}
	_ = nd.SendIP(h, rst.Encode(p.Header.Dst, p.Header.Src))
}

// TCPRetransmits reports the node's lifetime count of RTO-driven resends
// (read it after the simulation, or under Locked).
func (nd *Node) TCPRetransmits() int {
	if nd.tcp == nil {
		return 0
	}
	return nd.tcp.retransmits
}

// AbortTCP hard-kills every TCP endpoint on the node without emitting any
// packets, as a crash would: peers discover via RST-on-next-segment or
// retransmission timeout. Used by emulytics kill/restart experiments.
// Call under RunGated's quiescent windows (e.g. from a gated goroutine via
// Locked, or between RunGated slices).
func (nd *Node) AbortTCP() {
	th := nd.tcp
	if th == nil {
		return
	}
	g := nd.net.gate
	keys := make([]tcpKey, 0, len(th.conns))
	for k := range th.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.localPort != b.localPort {
			return a.localPort < b.localPort
		}
		if a.remoteIP != b.remoteIP {
			return a.remoteIP < b.remoteIP
		}
		return a.remotePort < b.remotePort
	})
	for _, k := range keys {
		if c, ok := th.conns[k]; ok {
			c.fail(ErrConnReset)
		}
	}
	ports := make([]int, 0, len(th.listeners))
	for port := range th.listeners {
		ports = append(ports, int(port))
	}
	sort.Ints(ports)
	for _, port := range ports {
		l := th.listeners[uint16(port)]
		delete(th.listeners, uint16(port))
		l.closed = true
		for _, w := range l.acceptors {
			g.wake(w)
		}
		l.acceptors = nil
		l.backlog = nil
		for l.tokens.n > 0 {
			g.releasePool(&l.tokens)
		}
	}
}
