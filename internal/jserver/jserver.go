// Package jserver implements the Journal Server: a TCP server that owns
// the in-memory Journal, serializes updates, answers Get queries, and
// "writes [the Journal] to disk periodically and at termination".
package jserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fremont/internal/journal"
	"fremont/internal/jwire"
	"fremont/internal/obs"
	"fremont/internal/wal"
)

// Server owns a Journal and serves the jwire protocol. The server itself
// holds no lock around query dispatch: the Journal's internal read/write
// lock lets Get queries from many connections proceed in parallel while
// stores serialize against them. When a WAL is attached, the log's
// commit leader applies mutations in LSN order, so the log's append
// order is exactly the journal's apply order.
type Server struct {
	journal *journal.Journal

	SnapshotPath     string        // "" disables persistence
	SnapshotInterval time.Duration // default 5 minutes

	// WAL, when non-nil, is the write-ahead log every mutating request
	// is appended to before it touches the journal. Set it (along with
	// SnapshotPath) before Recover/Listen; the server owns it from then
	// on and closes it in Close.
	WAL *wal.Log

	// SubQueueMax overrides DefaultSubQueueMax: the number of pending
	// push events a subscriber may have queued before it is degraded to
	// a cursor resync. Set before Listen.
	SubQueueMax int

	// TenantQuota caps the records a tenant namespace may hold; 0 means
	// unlimited. A mutating frame on a tenant at or over its quota is
	// rejected before it reaches the WAL (admission control: a concurrent
	// burst already in flight may overshoot by its own size). Set before
	// Listen.
	TenantQuota int

	// tenants maps namespace -> journal, created lazily on first use
	// (OpNamespace select, WAL replay, or snapshot restore). The default
	// namespace "" is s.journal and is never in this map.
	tenantMu sync.Mutex
	tenants  map[string]*journal.Journal

	tenantRecs   *obs.GaugeVec   // jserver_tenant_records{tenant=...}
	quotaRejects *obs.CounterVec // jserver_tenant_quota_rejects_total{tenant=...}

	// logMu is the commit/snapshot barrier. A connection holds it for
	// READING from its burst's first stage until the burst drains (every
	// ticket waited on, so applied) — many connections at once, sharing
	// commit groups in the WAL. SaveSnapshot takes it for WRITING, which
	// quiesces the pipeline: no frame is staged-but-unapplied while the
	// write lock is held, so a snapshot covers exactly the records below
	// its WAL rotation boundary.
	logMu sync.RWMutex
	// saveMu serializes whole SaveSnapshot calls (ticker loop vs.
	// explicit callers) so two writers never race on the same rename.
	saveMu sync.Mutex

	ln     net.Listener
	wg     sync.WaitGroup
	quit   chan struct{}
	mu     sync.Mutex // guards closed
	closed bool

	// obs is the server's metrics registry: per-op request counters and
	// latency histograms, connection gauges, recovery gauges. Each server
	// owns its own registry so co-resident servers (tests, multi-tenant
	// processes) never mix counts; fremontd shares it with the WAL and
	// the -metrics-addr endpoint. The cached vecs keep the dispatch hot
	// path to one sync.Map load per instrument.
	obs      *obs.Registry
	reqCount *obs.CounterVec
	reqLat   *obs.HistogramVec
	conns    *obs.Gauge
	connsTot *obs.Counter
	batches  *obs.Counter

	// Subscription hub (subscribe.go). hubCursor is the last mod-seq
	// fanned out to live subscribers; publish rounds serialize on hubMu,
	// membership on subMu, and nsubs keeps the no-subscriber commit
	// fast path to one atomic load.
	hubMu     sync.Mutex
	hubCursor uint64
	subMu     sync.Mutex
	subs      map[*subscriber]struct{}
	nsubs     atomic.Int64

	subsGauge  *obs.Gauge
	subsTotal  *obs.Counter
	subPushes  *obs.Counter
	subDrops   *obs.Counter
	subResyncs *obs.Counter
}

// Stats is a point-in-time snapshot of the server's headline counters —
// a thin compatibility view over the metrics registry; the full picture
// (per-op counts, latency percentiles, WAL activity) comes from Obs().
type Stats struct {
	RequestsServed int64
}

// Stats returns the server's counters; safe to call at any time.
// RequestsServed is the sum of the per-op jserver_requests_total family
// (each batch sub-request counts once).
func (s *Server) Stats() Stats {
	return Stats{RequestsServed: s.reqCount.Sum()}
}

// Obs returns the server's metrics registry, for mounting on an HTTP
// endpoint or sharing with the WAL.
func (s *Server) Obs() *obs.Registry { return s.obs }

// New creates a server around j (a fresh journal if nil).
func New(j *journal.Journal) *Server {
	if j == nil {
		j = journal.New()
	}
	reg := obs.NewRegistry()
	j.Instrument(reg) // mirror journal store/merge/conflict counters
	return &Server{
		journal:          j,
		SnapshotInterval: 5 * time.Minute,
		quit:             make(chan struct{}),
		obs:              reg,
		reqCount:         reg.CounterVec("jserver_requests_total", "op"),
		reqLat:           reg.HistogramVec("jserver_request_seconds", "op", nil),
		conns:            reg.Gauge("jserver_open_connections"),
		connsTot:         reg.Counter("jserver_connections_total"),
		batches:          reg.Counter("jserver_batches_total"),
		subsGauge:        reg.Gauge("jserver_subscribers"),
		subsTotal:        reg.Counter("jserver_subscriptions_total"),
		subPushes:        reg.Counter("jserver_sub_pushes_total"),
		subDrops:         reg.Counter("jserver_sub_dropped_events_total"),
		subResyncs:       reg.Counter("jserver_sub_resyncs_total"),
		tenantRecs:       reg.GaugeVec("jserver_tenant_records", "tenant"),
		quotaRejects:     reg.CounterVec("jserver_tenant_quota_rejects_total", "tenant"),
	}
}

// Journal exposes the underlying journal for in-process callers (tests,
// the sim harness). Callers must not retain references across server use.
func (s *Server) Journal() *journal.Journal { return s.journal }

// LoadSnapshot restores the journal from SnapshotPath if the file exists.
// Servers with a WAL attached should call Recover instead, which also
// replays the log tail.
func (s *Server) LoadSnapshot() error {
	_, err := s.loadSnapshot()
	return err
}

func (s *Server) loadSnapshot() (RecoveryStats, error) {
	var st RecoveryStats
	if s.SnapshotPath == "" {
		return st, nil
	}
	data, err := os.ReadFile(s.SnapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	lsn, err := s.restoreServerSnapshot(data)
	if err != nil {
		return st, err
	}
	st.SnapshotLoaded = true
	st.SnapshotLSN = lsn
	return st, nil
}

// RecoveryStats reports what Recover rebuilt the journal from.
type RecoveryStats struct {
	SnapshotLoaded bool
	SnapshotLSN    uint64 // WAL position the snapshot covers
	WALFrames      int    // request frames replayed from the log
	WALOps         int    // mutating operations applied from those frames
	WALSkipped     int    // frames already covered by the snapshot
	Torn           bool   // the log had a torn/corrupt tail
	DroppedBytes   int64  // unverifiable log bytes discarded
}

// Recover rebuilds the journal: restore the snapshot (if any), then
// replay every WAL record past the snapshot's LSN through the same
// dispatch the live server uses. Call it after attaching the WAL and
// before Listen. What was rebuilt is returned and also published as
// jserver_recovery_* gauges, so a metrics scrape sees how the last
// restart went long after the startup log line scrolled away.
func (s *Server) Recover() (RecoveryStats, error) {
	st, err := s.loadSnapshot()
	if err != nil || s.WAL == nil {
		s.publishRecovery(st)
		return st, err
	}
	// Never reissue LSNs the snapshot already covers, even if every
	// segment was compacted away or lost.
	s.WAL.AdvanceLSN(st.SnapshotLSN)
	ri := s.WAL.RecoveryInfo()
	st.Torn = ri.Torn
	st.DroppedBytes = ri.DroppedBytes
	_, err = s.WAL.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= st.SnapshotLSN {
			st.WALSkipped++
			return nil
		}
		st.WALFrames++
		st.WALOps += s.replayFrame(payload)
		return nil
	})
	s.publishRecovery(st)
	s.publishTenantGauges()
	return st, err
}

// replayFrame applies one recovered WAL frame: tenant envelopes replay
// into their tenant's journal, raw frames into the default journal.
func (s *Server) replayFrame(payload []byte) int {
	ns, inner, err := jwire.UnscopePayload(payload)
	if err != nil {
		log.Printf("jserver: recovery: dropping malformed tenant envelope: %v", err)
		return 0
	}
	j := s.journal
	if ns != "" {
		j = s.tenantJournal(ns)
	}
	return jwire.ReplayPayload(j, inner)
}

// publishTenantGauges refreshes jserver_tenant_records for every tenant.
func (s *Server) publishTenantGauges() {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	for ns, j := range s.tenants {
		s.tenantRecs.With(ns).Set(int64(j.RecordCount()))
	}
}

// publishRecovery mirrors RecoveryStats into the registry.
func (s *Server) publishRecovery(st RecoveryStats) {
	b2i := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	s.obs.Gauge("jserver_recovery_snapshot_loaded").Set(b2i(st.SnapshotLoaded))
	s.obs.Gauge("jserver_recovery_snapshot_lsn").Set(int64(st.SnapshotLSN))
	s.obs.Gauge("jserver_recovery_wal_frames").Set(int64(st.WALFrames))
	s.obs.Gauge("jserver_recovery_wal_ops").Set(int64(st.WALOps))
	s.obs.Gauge("jserver_recovery_wal_skipped").Set(int64(st.WALSkipped))
	s.obs.Gauge("jserver_recovery_torn").Set(b2i(st.Torn))
	s.obs.Gauge("jserver_recovery_dropped_bytes").Set(st.DroppedBytes)
}

// SaveSnapshot writes the journal to SnapshotPath atomically and durably:
// a unique temp file in the target directory, fsynced before an atomic
// rename, with the directory fsynced after. Concurrent callers (the
// ticker loop, explicit invocations) serialize on saveMu. When a WAL is
// attached the snapshot is also the compaction point: the log rotates
// while no mutation is in flight, and once the snapshot is durable every
// segment below the rotation boundary is deleted.
func (s *Server) SaveSnapshot() error {
	if s.SnapshotPath == "" {
		return nil
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()

	var data []byte
	var boundary uint64
	if s.WAL != nil {
		// Holding logMu for writing quiesces the commit pipeline: no
		// stage+apply span is in flight, so every record below the new
		// segment boundary is already in the journal — and therefore in
		// this snapshot.
		s.logMu.Lock()
		seq, err := s.WAL.Rotate()
		if err != nil {
			s.logMu.Unlock()
			return err
		}
		boundary = seq
		data = s.encodeServerSnapshot(s.WAL.LastLSN())
		s.logMu.Unlock()
	} else {
		data = s.encodeServerSnapshot(0)
	}

	dir := filepath.Dir(s.SnapshotPath)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.SnapshotPath)+".tmp-")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.SnapshotPath); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := wal.SyncDir(dir); err != nil {
		return err
	}
	if s.WAL != nil {
		if _, err := s.WAL.Compact(boundary); err != nil {
			return err
		}
	}
	return nil
}

// Serve starts serving connections accepted from ln in the background.
// The listener may be anything satisfying net.Listener — a real TCP
// socket, a net.Pipe-backed test listener, or a simulated one
// (netsim.ListenTCP) — the server code never assumes *net.TCPConn.
// The server takes ownership of ln; Close closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	if s.SnapshotPath != "" {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return nil
}

// ListenAndServe binds addr ("host:port"; ":0" picks a free port) on TCP
// and starts serving in the background. Addr() reports the bound address.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Listen is the historical name for ListenAndServe, kept so existing
// call sites compile unchanged.
func (s *Server) Listen(addr string) error { return s.ListenAndServe(addr) }

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server, waits for connections to drain, and writes a
// final snapshot.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
	err := s.SaveSnapshot()
	if s.WAL != nil {
		if cerr := s.WAL.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// acceptBackoffMax caps the retry delay after transient Accept errors.
const acceptBackoffMax = time.Second

// acceptLoop accepts connections until shutdown. Transient Accept
// errors — EMFILE/ENFILE under fd pressure, ECONNABORTED, timeouts —
// must not kill the server, so any error other than a closed listener
// is retried with capped exponential backoff (5ms doubling to 1s); the
// pause gives the process a chance to shed file descriptors.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // deadline-style blips need no pause
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			log.Printf("jserver: accept: %v (retrying in %v)", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.quit:
				return
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.SaveSnapshot(); err != nil {
				log.Printf("jserver: snapshot: %v", err)
			}
		case <-s.quit:
			return
		}
	}
}

// pipelineDepth bounds the responses one connection may owe: the handler
// stops reading ahead and drains once this many are unwritten, which is
// also what bounds the per-connection memory the pipeline can pin.
const pipelineDepth = 64

// connBufSize sizes the per-connection buffered reader and writer. The
// read buffer is the connection's read-ahead: a pipelined client's
// burst of frames lands in one syscall and stages into one commit
// group; the write buffer coalesces a burst of responses into one
// flush when the pipeline drains.
const connBufSize = 32 << 10

// handleConn serves one connection on one goroutine. It reads ahead
// while a whole frame is buffered, staging mutations in arrival order so
// one client's burst shares a commit group, whose leader applies them in
// LSN order. It settles the burst before anything that must see its
// effect (a query, a namespace switch, a quota check), and drains it
// before anything that must block (a read that would, a full pipeline,
// a subscribe).
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	s.connsTot.Inc()
	s.conns.Add(1)
	defer s.conns.Add(-1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.quit:
			conn.Close() // unblock reads on shutdown
		case <-done:
		}
	}()

	br := bufio.NewReaderSize(conn, connBufSize)
	p := &connPipe{s: s, bw: bufio.NewWriterSize(conn, connBufSize), tj: s.journal}
	defer p.drain()
	for {
		if p.n == pipelineDepth || !frameBuffered(br) {
			if p.drain() != nil {
				return
			}
		}
		req, err := jwire.ReadFrameBuf(br, jwire.GetBuf())
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				log.Printf("jserver: read: %v", err)
			}
			return
		}
		if len(req) > 0 && req[0] == jwire.OpSubscribe && p.ns == "" {
			// The connection flips to push mode and never returns to
			// request/response: every earlier response goes out first.
			if p.drain() == nil {
				s.serveSubscription(conn, br, req[1:])
			}
			jwire.PutBuf(req)
			return
		}
		p.serve(req)
	}
}

// frameBuffered reports whether br already holds one whole frame, so
// reading it cannot block. Buffered is checked before Peek because a
// Peek past the buffered bytes blocks on the connection.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(hdr))
}

// connPipe is one connection's pipeline: the responses it owes in
// request order and the WAL tickets of the mutations staged since the
// last settle. The slots live in a fixed array, so a commit leader on
// another connection's goroutine can fill one while this connection
// keeps staging.
type connPipe struct {
	s    *Server
	bw   *bufio.Writer
	owed [pipelineDepth]struct {
		resp   []byte
		ticket wal.Ticket // LSN 0 unless the response awaits a commit
	}
	n int // owed slots in use

	// ns/tj are the connection's tenant scope: OpNamespace switches them
	// for every later request (the empty namespace is the default journal).
	ns string
	tj *journal.Journal

	// locked is set from the burst's first stage until it settles: the
	// burst holds logMu for reading and has commits to publish. The lock
	// is taken once per burst, never per stage: a second RLock queued
	// behind a waiting SaveSnapshot would deadlock against the first.
	locked bool
}

// owe queues resp as the next response in request order.
func (p *connPipe) owe(resp []byte) {
	p.owed[p.n].resp = resp
	p.n++
}

// serve handles one request frame other than a default-namespace
// subscribe, queuing its response.
func (p *connPipe) serve(req []byte) {
	s := p.s
	switch {
	case len(req) > 0 && req[0] == jwire.OpNamespace:
		p.settle()
		resp, ns, j := s.handleNamespace(req)
		if j != nil {
			p.ns, p.tj = ns, j
		}
		p.owe(resp)
	case len(req) > 0 && req[0] == jwire.OpSubscribe:
		// The hub publishes default-journal commits only; a scoped
		// connection cannot stream them.
		p.owe(errPayload(errors.New("jserver: subscribe not valid on a tenant namespace")))
	case s.WAL != nil && jwire.PayloadMutates(req):
		if p.ns != "" {
			// The quota is checked against an up-to-date record count.
			p.settle()
			if err := s.checkQuota(p.ns, p.tj); err != nil {
				p.owe(errPayload(err))
				break
			}
		}
		p.stage(req)
		return // req is recycled by its apply callback
	default:
		p.settle()
		p.owe(s.dispatchNS(req, p.ns, p.tj))
	}
	jwire.PutBuf(req)
}

// stage logs one mutating frame in the WAL. The commit leader applies it
// to the connection's journal once it is durable, in LSN order, and
// fills its response slot.
func (p *connPipe) stage(req []byte) {
	s := p.s
	if !p.locked {
		s.logMu.RLock()
		p.locked = true
	}
	o, j := &p.owed[p.n], p.tj
	var err error
	o.ticket, err = s.WAL.Stage(scope(p.ns, req), func() {
		o.resp = s.apply(req, j)
		jwire.PutBuf(req)
	})
	if err != nil { // no ticket: the callback never runs
		o.resp = walErr(err)
		jwire.PutBuf(req)
	}
	p.n++
}

// settle makes the burst's mutations visible: wait for every staged
// ticket (durable and applied once Wait returns), release logMu, and
// publish the burst's commits once — before any of their acks is
// written, so an ack is never ahead of its push.
func (p *connPipe) settle() {
	owed := p.owed[:p.n]
	for i := range owed {
		if t := owed[i].ticket; t.LSN != 0 {
			if err := t.Wait(); err != nil {
				owed[i].resp = walErr(err)
			}
			owed[i].ticket = wal.Ticket{}
		}
	}
	if p.locked {
		p.s.logMu.RUnlock()
		p.locked = false
		p.s.published(p.ns, p.tj)
	}
}

// drain settles the pipeline, then writes every owed response in order
// and flushes. The error is the connection's write error, if any; it is
// sticky in the buffered writer, so every later drain reports it too.
func (p *connPipe) drain() error {
	p.settle()
	var err error
	for i := range p.owed[:p.n] {
		if err == nil {
			err = jwire.WriteFrame(p.bw, p.owed[i].resp)
		}
		jwire.PutBuf(p.owed[i].resp)
		p.owed[i].resp = nil
	}
	p.n = 0
	if err != nil {
		return err
	}
	return p.bw.Flush()
}

// handleNamespace answers one OpNamespace request: resolve (creating if
// needed) the tenant journal the connection scopes to from here on. On a
// decode error the response is an error frame and the connection keeps
// its previous scope.
func (s *Server) handleNamespace(req []byte) (resp []byte, ns string, j *journal.Journal) {
	name := jwire.OpName(jwire.OpNamespace)
	s.reqCount.With(name).Inc()
	defer s.reqLat.With(name).ObserveSince(time.Now())
	r := &jwire.Reader{B: req}
	r.U8() // opcode
	nreq := jwire.GetNamespaceReq(r)
	if r.Err != nil {
		return errPayload(r.Err), "", nil
	}
	j = s.journal
	if nreq.Namespace != "" {
		j = s.tenantJournal(nreq.Namespace)
	}
	var w jwire.Writer
	w.U8(jwire.StatusOK)
	return w.B, nreq.Namespace, j
}

// tenantJournal returns the journal for namespace ns, creating it on
// first use. Tenant journals inherit the default journal's ID stride, so
// every journal on a fabric shard allocates from the shard's residue
// class and tenant reads merge fabric-wide exactly like default ones.
func (s *Server) tenantJournal(ns string) *journal.Journal {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	j := s.tenants[ns]
	if j == nil {
		j = journal.New()
		if off, stride := s.journal.IDStride(); stride > 1 {
			j.SetIDStride(off, stride)
		}
		if s.tenants == nil {
			s.tenants = make(map[string]*journal.Journal)
		}
		s.tenants[ns] = j
	}
	return j
}

// Tenants returns the namespaces with a journal, sorted.
func (s *Server) Tenants() []string {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for ns := range s.tenants {
		names = append(names, ns)
	}
	sort.Strings(names)
	return names
}

// TenantJournal exposes a tenant's journal for in-process callers; it
// creates the tenant if needed.
func (s *Server) TenantJournal(ns string) *journal.Journal {
	if ns == "" {
		return s.journal
	}
	return s.tenantJournal(ns)
}

// checkQuota is the tenant admission check run before a mutating frame
// is logged or applied.
func (s *Server) checkQuota(ns string, j *journal.Journal) error {
	if s.TenantQuota <= 0 {
		return nil
	}
	if n := j.RecordCount(); n >= s.TenantQuota {
		s.quotaRejects.With(ns).Inc()
		return fmt.Errorf("jserver: tenant %q at quota (%d of %d records)", ns, n, s.TenantQuota)
	}
	return nil
}

// serveSubscription runs one OpSubscribe stream on conn: answer with
// the starting cursor, register with the hub, then push until the
// client sends anything (or disconnects), the server shuts down, or a
// push write fails. rd is the connection's buffered reader (it may
// hold frames already read ahead of the subscribe).
func (s *Server) serveSubscription(conn net.Conn, rd io.Reader, body []byte) {
	s.reqCount.With(jwire.OpName(jwire.OpSubscribe)).Inc()
	r := &jwire.Reader{B: body}
	req := jwire.GetSubscribeReq(r)
	if r.Err != nil {
		jwire.WriteFrame(conn, errPayload(r.Err))
		return
	}
	kinds := req.Kinds
	if kinds == 0 {
		kinds = jwire.SubAllKinds
	}
	start := req.After
	if req.FromNow {
		start = s.journal.CurSeq()
	}

	sub := &subscriber{
		s:      s,
		conn:   conn,
		kinds:  kinds,
		cursor: start,
		lagged: true, // the initial catch-up is a (silent) resync
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	s.addSub(sub)
	defer s.removeSub(sub)

	// Registered before the acknowledgment, so every commit after
	// `start` is either queued by the hub or still ahead of the catch-up
	// walk — never between the two.
	var w jwire.Writer
	w.U8(jwire.StatusOK)
	w.U64(start)
	w.U64(s.journal.CurSeq())
	if err := jwire.WriteFrame(conn, w.B); err != nil {
		return
	}

	// Reader side: a subscription connection carries no further
	// requests, so any inbound frame — or the client hanging up — ends
	// the stream. This also unblocks the writer on server shutdown,
	// which closes conn via the per-connection quit watcher.
	go func() {
		_, _ = jwire.ReadFrame(rd)
		sub.stop()
	}()
	sub.run()
	sub.stop()
}

// scope wraps a tenant's frame in its WAL envelope; default-namespace
// frames stay raw, so every pre-tenancy WAL replays unchanged.
func scope(ns string, req []byte) []byte {
	if ns == "" {
		return req
	}
	return jwire.ScopePayload(ns, req)
}

func walErr(err error) []byte {
	return errPayload(fmt.Errorf("jserver: wal append: %w", err))
}

// published announces committed mutations on ns: default-journal commits
// feed the subscription hub, tenant ones refresh the tenant's gauge.
func (s *Server) published(ns string, j *journal.Journal) {
	if ns == "" {
		s.publishChanges()
	} else {
		s.tenantRecs.With(ns).Set(int64(j.RecordCount()))
	}
}

// apply routes one frame body to the journal: a single operation or an
// OpBatch carrying many.
func (s *Server) apply(req []byte, j *journal.Journal) []byte {
	r := &jwire.Reader{B: req}
	op := r.U8()
	if op == jwire.OpBatch {
		return s.dispatchBatch(j, r)
	}
	return s.dispatchOne(j, op, r)
}

// dispatch routes one frame: either a single operation or an OpBatch
// carrying many. With a WAL attached, a frame carrying any mutation (a
// whole OpBatch logs as one append) is made durable before the WAL's
// commit leader applies it — write-ahead, so an acknowledged store can
// always be replayed. Mutations then publish to the subscription hub
// before the response is returned: a push is behind durability, never
// ahead of it.
func (s *Server) dispatch(req []byte) []byte {
	return s.dispatchNS(req, "", s.journal)
}

// dispatchNS is dispatch scoped to a tenant: j is the journal the frame
// reads and writes, ns its namespace ("" = default). Connections stage
// their WAL mutations through connPipe instead.
func (s *Server) dispatchNS(req []byte, ns string, j *journal.Journal) []byte {
	if !jwire.PayloadMutates(req) {
		return s.apply(req, j)
	}
	if ns != "" {
		if err := s.checkQuota(ns, j); err != nil {
			return errPayload(err)
		}
	}
	var resp []byte
	if s.WAL == nil {
		resp = s.apply(req, j)
	} else {
		s.logMu.RLock()
		t, err := s.WAL.Stage(scope(ns, req), func() { resp = s.apply(req, j) })
		if err == nil {
			err = t.Wait()
		}
		s.logMu.RUnlock()
		if err != nil {
			return walErr(err)
		}
	}
	s.published(ns, j)
	return resp
}

// dispatchBatch executes each sub-request in order and frames one
// length-prefixed sub-response (with its own status byte) per sub-request.
// Sub-requests are independent: a failure is reported in its slot and the
// rest of the batch still executes.
func (s *Server) dispatchBatch(j *journal.Journal, r *jwire.Reader) []byte {
	subs := jwire.GetBatch(r)
	var w jwire.Writer
	if r.Err != nil {
		w.U8(jwire.StatusError)
		w.String(r.Err.Error())
		return w.B
	}
	s.batches.Inc()
	w.U8(jwire.StatusOK)
	w.U32(uint32(len(subs)))
	for _, sub := range subs {
		sr := &jwire.Reader{B: sub}
		op := sr.U8()
		var resp []byte
		switch {
		case sr.Err != nil:
			resp = errPayload(errors.New("jserver: empty batch sub-request"))
		case op == jwire.OpBatch:
			resp = errPayload(errors.New("jserver: nested batch rejected"))
		case op == jwire.OpNamespace:
			resp = errPayload(errors.New("jserver: namespace not valid inside a batch"))
		default:
			resp = s.dispatchOne(j, op, sr)
		}
		w.Bytes(resp)
	}
	return w.B
}

// clampPage bounds a requested scan/changes page size: non-positive
// requests fall back to the journal's default, oversized ones are capped
// at the protocol maximum.
func clampPage(limit int) int {
	if limit <= 0 {
		return journal.DefaultScanLimit
	}
	if limit > jwire.MaxScanPage {
		return jwire.MaxScanPage
	}
	return limit
}

func errPayload(err error) []byte {
	var w jwire.Writer
	w.U8(jwire.StatusError)
	w.String(err.Error())
	return w.B
}

// dispatchOne applies one operation and builds its response payload.
// Every executed operation (batch sub-requests included) bumps its
// per-op counter and records its service latency.
func (s *Server) dispatchOne(j *journal.Journal, op byte, r *jwire.Reader) []byte {
	name := jwire.OpName(op)
	s.reqCount.With(name).Inc()
	defer s.reqLat.With(name).ObserveSince(time.Now())

	var w jwire.Writer
	fail := func(err error) []byte {
		w.B = w.B[:0]
		w.U8(jwire.StatusError)
		w.String(err.Error())
		return w.B
	}

	switch op {
	// Mutations go through jwire.ApplyOp, the same dispatch WAL
	// recovery replays, so a recovered journal cannot drift from a
	// served one.
	case jwire.OpStoreInterface:
		res, err := jwire.ApplyOp(j, op, r)
		if err != nil {
			return fail(err)
		}
		w.U8(jwire.StatusOK)
		w.ID(res.ID)
		w.Bool(res.Created)
	case jwire.OpStoreGateway, jwire.OpStoreSubnet:
		res, err := jwire.ApplyOp(j, op, r)
		if err != nil {
			return fail(err)
		}
		w.U8(jwire.StatusOK)
		w.ID(res.ID)
	case jwire.OpGetInterfaces:
		q := jwire.GetQuery(r)
		if r.Err != nil {
			return fail(r.Err)
		}
		recs := j.Interfaces(q)
		w.U8(jwire.StatusOK)
		w.U32(uint32(len(recs)))
		for _, rec := range recs {
			jwire.PutInterfaceRec(&w, rec)
		}
	case jwire.OpGetGateways:
		recs := j.Gateways()
		w.U8(jwire.StatusOK)
		w.U32(uint32(len(recs)))
		for _, rec := range recs {
			jwire.PutGatewayRec(&w, rec)
		}
	case jwire.OpGetSubnets:
		recs := j.Subnets()
		w.U8(jwire.StatusOK)
		w.U32(uint32(len(recs)))
		for _, rec := range recs {
			jwire.PutSubnetRec(&w, rec)
		}
	case jwire.OpDelete:
		res, err := jwire.ApplyOp(j, op, r)
		if err != nil {
			return fail(err)
		}
		w.U8(jwire.StatusOK)
		w.Bool(res.Deleted)
	case jwire.OpScan:
		// One page per request: the journal holds its read lock for at
		// most clampPage records, never the whole journal.
		req := jwire.GetScanReq(r)
		if r.Err != nil {
			return fail(r.Err)
		}
		limit := clampPage(req.Limit)
		w.U8(jwire.StatusOK)
		switch req.Kind {
		case journal.KindInterface:
			recs, next, more := j.ScanInterfaces(req.Cursor, limit, req.Filter)
			w.U32(uint32(len(recs)))
			for _, rec := range recs {
				jwire.PutInterfaceRec(&w, rec)
			}
			w.ID(next)
			w.Bool(more)
		case journal.KindGateway:
			recs, next, more := j.ScanGateways(req.Cursor, limit)
			w.U32(uint32(len(recs)))
			for _, rec := range recs {
				jwire.PutGatewayRec(&w, rec)
			}
			w.ID(next)
			w.Bool(more)
		case journal.KindSubnet:
			recs, next, more := j.ScanSubnets(req.Cursor, limit)
			w.U32(uint32(len(recs)))
			for _, rec := range recs {
				jwire.PutSubnetRec(&w, rec)
			}
			w.ID(next)
			w.Bool(more)
		default:
			return fail(fmt.Errorf("jserver: scan: unknown record kind %d", req.Kind))
		}
	case jwire.OpChanges:
		req := jwire.GetChangesReq(r)
		if r.Err != nil {
			return fail(r.Err)
		}
		limit := clampPage(req.Limit)
		w.U8(jwire.StatusOK)
		switch req.Kind {
		case journal.KindInterface:
			recs, next, more := j.InterfaceChanges(req.After, limit)
			w.U32(uint32(len(recs)))
			for _, rec := range recs {
				jwire.PutInterfaceRec(&w, rec)
			}
			w.U64(next)
			w.Bool(more)
		case journal.KindGateway:
			recs, next, more := j.GatewayChanges(req.After, limit)
			w.U32(uint32(len(recs)))
			for _, rec := range recs {
				jwire.PutGatewayRec(&w, rec)
			}
			w.U64(next)
			w.Bool(more)
		case journal.KindSubnet:
			recs, next, more := j.SubnetChanges(req.After, limit)
			w.U32(uint32(len(recs)))
			for _, rec := range recs {
				jwire.PutSubnetRec(&w, rec)
			}
			w.U64(next)
			w.Bool(more)
		default:
			return fail(fmt.Errorf("jserver: changes: unknown record kind %d", req.Kind))
		}
	case jwire.OpSubscribe:
		// Reachable only as a batch sub-request: handleConn intercepts
		// direct subscribes before dispatch.
		return fail(errors.New("jserver: subscribe not valid inside a batch"))
	case jwire.OpPing:
		w.U8(jwire.StatusOK)
	case jwire.OpStats:
		data, err := obs.MarshalSnapshot(s.obs.Snapshot())
		if err != nil {
			return fail(err)
		}
		w.U8(jwire.StatusOK)
		w.Bytes(data)
	default:
		return fail(fmt.Errorf("jserver: unknown opcode %d", op))
	}
	return w.B
}

// --- Snapshot format ------------------------------------------------------

const snapshotMagic = 0x4652454d // "FREM"

// EncodeSnapshot serializes the whole journal with no WAL position
// (LSN 0): every logged record will replay on top of it.
func EncodeSnapshot(j *journal.Journal) []byte {
	return EncodeSnapshotAt(j, 0)
}

// EncodeSnapshotAt serializes the whole journal (records in modification
// order, oldest first), stamped with the WAL LSN the snapshot covers:
// recovery skips logged records at or below it. journal.ExportSeq takes
// the read lock once, so the snapshot — records plus the modification
// sequence counter — is a single consistent point in time even under
// concurrent stores.
func EncodeSnapshotAt(j *journal.Journal, lsn uint64) []byte {
	var w jwire.Writer
	w.U32(snapshotMagic)
	w.U16(3) // version; v2 added the WAL LSN, v3 the modification seq
	w.U64(lsn)
	encodeJournalSection(&w, j)
	return w.B
}

// encodeJournalSection writes one journal's body — modification sequence
// counter, then records in modification order — the layout shared by the
// v3 snapshot body and each v4 section.
func encodeJournalSection(w *jwire.Writer, j *journal.Journal) {
	ifs, gws, sns, seq := j.ExportSeq()
	w.U64(seq)
	w.U32(uint32(len(ifs)))
	for _, r := range ifs {
		jwire.PutInterfaceRec(w, r)
	}
	w.U32(uint32(len(gws)))
	for _, r := range gws {
		jwire.PutGatewayRec(w, r)
	}
	w.U32(uint32(len(sns)))
	for _, r := range sns {
		jwire.PutSubnetRec(w, r)
	}
}

// restoreJournalSection is the inverse of encodeJournalSection. The
// modification sequence counter is advanced BEFORE restoring records:
// restored records then get stamps above any cursor a replication peer
// obtained from the previous incarnation, so a stale cursor re-transfers
// instead of skipping.
func restoreJournalSection(j *journal.Journal, r *jwire.Reader) {
	j.AdvanceSeq(r.U64())
	restoreRecords(j, r)
}

func restoreRecords(j *journal.Journal, r *jwire.Reader) {
	for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
		j.RestoreInterface(jwire.GetInterfaceRec(r))
	}
	for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
		j.RestoreGateway(jwire.GetGatewayRec(r))
	}
	for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
		j.RestoreSubnet(jwire.GetSubnetRec(r))
	}
}

// encodeServerSnapshot serializes the default journal and, when tenants
// exist, every tenant journal. A tenantless server writes a version-3
// snapshot — byte-identical to what it wrote before tenancy existed —
// so golden-trace digests and downgrade paths are undisturbed. With
// tenants the format is version 4:
//
//	[magic][v=4][lsn][default section][tenant count]
//	then per tenant (name-sorted): [name][section]
func (s *Server) encodeServerSnapshot(lsn uint64) []byte {
	names := s.Tenants()
	if len(names) == 0 {
		return EncodeSnapshotAt(s.journal, lsn)
	}
	var w jwire.Writer
	w.U32(snapshotMagic)
	w.U16(4)
	w.U64(lsn)
	encodeJournalSection(&w, s.journal)
	w.U32(uint32(len(names)))
	for _, ns := range names {
		w.String(ns)
		encodeJournalSection(&w, s.tenantJournal(ns))
	}
	return w.B
}

// restoreServerSnapshot loads any snapshot version into the server,
// creating tenant journals for v4 sections.
func (s *Server) restoreServerSnapshot(data []byte) (uint64, error) {
	r := &jwire.Reader{B: data}
	if r.U32() != snapshotMagic {
		return 0, errors.New("jserver: bad snapshot magic")
	}
	if v := r.U16(); v != 4 {
		// v1-v3 hold a single journal; reuse the exported restorer.
		return RestoreSnapshotLSN(s.journal, data)
	}
	lsn := r.U64()
	restoreJournalSection(s.journal, r)
	for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
		ns := r.String()
		if r.Err != nil {
			break
		}
		restoreJournalSection(s.tenantJournal(ns), r)
	}
	s.publishTenantGauges()
	return lsn, r.Err
}

// RestoreSnapshot loads records into j, discarding the WAL position.
func RestoreSnapshot(j *journal.Journal, data []byte) error {
	_, err := RestoreSnapshotLSN(j, data)
	return err
}

// RestoreSnapshotLSN loads records into j and returns the WAL LSN the
// snapshot covers (0 for version-1 snapshots, which predate the WAL).
// Version-4 (tenant-bearing) snapshots restore the default journal only;
// use Server.Recover / LoadSnapshot to restore tenants too.
func RestoreSnapshotLSN(j *journal.Journal, data []byte) (uint64, error) {
	r := &jwire.Reader{B: data}
	if r.U32() != snapshotMagic {
		return 0, errors.New("jserver: bad snapshot magic")
	}
	var lsn uint64
	v := r.U16()
	switch v {
	case 1:
	case 2, 3, 4:
		lsn = r.U64()
	default:
		return 0, fmt.Errorf("jserver: unsupported snapshot version %d", v)
	}
	if v >= 3 {
		// v3 added the modification sequence counter ahead of the records.
		restoreJournalSection(j, r)
	} else {
		// v1/v2 predate it: a replication peer holding a cursor from the
		// previous incarnation degrades to one full re-transfer.
		j.AdvanceSeq(0)
		restoreRecords(j, r)
	}
	return lsn, r.Err
}
