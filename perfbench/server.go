package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fremont/internal/analysis"
	"fremont/internal/jclient"
	"fremont/internal/journal"
	"fremont/internal/jserver"
	"fremont/internal/wal"
)

// startServer boots a Journal Server the way fremontd does with
// -wal-dir and -wal-fsync always: WAL on local disk, snapshot beside it,
// Recover, then listen on loopback TCP. The snapshot ticker is pushed out
// of the run; workloads that snapshot call SaveSnapshot themselves.
func startServer(dir string, lay *layers) (*jserver.Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := jserver.New(nil)
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncAlways, Obs: srv.Obs()})
	if err != nil {
		return nil, err
	}
	srv.WAL = log
	srv.SnapshotPath = filepath.Join(dir, "journal.snap")
	srv.SnapshotInterval = time.Hour
	w := startWatch()
	if _, err := srv.Recover(); err != nil {
		srv.Close()
		return nil, err
	}
	lay.recover.add(w.seconds())
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// closeServer folds the server's counters into lay and shuts it down
// (Close writes the final snapshot and closes the WAL).
func closeServer(srv *jserver.Server, lay *layers) error {
	lay.addServer(srv)
	return srv.Close()
}

// wireCounts is what the counting transport saw, summed over connections.
type wireCounts struct {
	bytesOut, bytesIn, writes atomic.Int64
}

// countConn counts a client connection's traffic — the jwire layer's
// bytes and write calls per operation.
type countConn struct {
	net.Conn
	c *wireCounts
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

// dialOpts returns the jclient options for a run: a counting dialer when
// tracing, the library default otherwise.
func dialOpts(wc *wireCounts) []jclient.Option {
	if wc == nil {
		return nil
	}
	return []jclient.Option{jclient.WithDialer(func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, jclient.DefaultDialTimeout)
		if err != nil {
			return nil, err
		}
		return countConn{Conn: conn, c: wc}, nil
	})}
}

// event is one change the subscriber applied to its Monitor.
type event struct {
	seq      uint64
	kind     journal.RecordKind
	id       journal.ID
	key      uint32 // interface IP, subnet address, or gateway ID
	verified time.Time
	at       time.Time // when the Monitor had applied it
}

// watcher is the subscriber side: one jclient.Subscribe connection whose
// changes feed an analysis.Monitor, as fremont-analyze -follow does.
type watcher struct {
	sub  *jclient.Subscription
	mon  *analysis.Monitor
	tr   *tracer
	done chan struct{}

	cursor  atomic.Uint64 // highest seq applied
	mu      sync.Mutex
	events  []event
	resyncs int
	badSeq  int // a seq delivered twice or out of order
	applyNs int64
}

func startWatcher(addr string, tr *tracer, opts []jclient.Option) (*watcher, error) {
	sub, err := jclient.Subscribe(addr, jclient.SubscribeOptions{FromNow: true}, opts...)
	if err != nil {
		return nil, err
	}
	w := &watcher{
		sub:  sub,
		mon:  analysis.NewMonitor(analysis.Config{Now: ingestEpoch}),
		tr:   tr,
		done: make(chan struct{}),
	}
	w.cursor.Store(sub.Cursor())
	go w.loop()
	return w, nil
}

func (w *watcher) loop() {
	defer close(w.done)
	var last uint64
	for ch := range w.sub.Events() {
		start := time.Now()
		if ch.Resync {
			w.mu.Lock()
			w.resyncs++
			w.mu.Unlock()
			continue
		}
		ev := event{seq: ch.Seq, kind: ch.Kind}
		switch {
		case ch.Iface != nil:
			ev.id, ev.key, ev.verified = ch.Iface.ID, uint32(ch.Iface.IP), ch.Iface.Stamp.Verified
			w.mon.ApplyInterface(ch.Iface)
		case ch.Subnet != nil:
			ev.id, ev.key, ev.verified = ch.Subnet.ID, uint32(ch.Subnet.Subnet.Addr), ch.Subnet.Stamp.Verified
			w.mon.ApplySubnet(ch.Subnet)
		case ch.Gateway != nil:
			ev.id, ev.key, ev.verified = ch.Gateway.ID, uint32(ch.Gateway.ID), ch.Gateway.Stamp.Verified
		}
		ev.at = time.Now()
		w.tr.record("analysis.apply", 0, w.tr.obsOf(ev.verified), start, ev.at)
		w.mu.Lock()
		if ch.Seq <= last {
			w.badSeq++
		}
		last = ch.Seq
		w.events = append(w.events, ev)
		w.applyNs += int64(ev.at.Sub(start))
		w.mu.Unlock()
		w.cursor.Store(ch.Seq)
	}
}

// waitFor blocks until the subscriber has applied every change up to seq.
func (w *watcher) waitFor(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for w.cursor.Load() < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber stuck at seq %d, journal at %d", w.cursor.Load(), seq)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close ends the subscription and folds its numbers into lay.
func (w *watcher) close(lay *layers) {
	w.sub.Close()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	lay.monitorApply += time.Duration(w.applyNs)
}

// snapshotEvents returns the applied events in seq order.
func (w *watcher) snapshotEvents() []event {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]event(nil), w.events...)
}

// checkStream verifies the stream contract against the live journal after
// the subscriber has drained: every seq delivered at most once and in
// order, and every record changed since start delivered at its final
// ModSeq (no gap).
func (w *watcher) checkStream(r *Result, j *journal.Journal, start uint64) {
	evs := w.snapshotEvents()
	w.mu.Lock()
	bad := w.badSeq
	w.mu.Unlock()
	if bad > 0 {
		r.fail("subscriber: %d mod-seqs delivered twice or out of order", bad)
	}
	type rk struct {
		kind journal.RecordKind
		id   journal.ID
	}
	last := map[rk]uint64{}
	for _, ev := range evs {
		last[rk{ev.kind, ev.id}] = ev.seq
	}
	missing := 0
	check := func(kind journal.RecordKind, id journal.ID, seq uint64) {
		if last[rk{kind, id}] != seq {
			missing++
		}
	}
	for after := start; ; {
		recs, next, more := j.InterfaceChanges(after, 1024)
		for _, rec := range recs {
			check(journal.KindInterface, rec.ID, rec.ModSeq)
		}
		if !more {
			break
		}
		after = next
	}
	for after := start; ; {
		recs, next, more := j.GatewayChanges(after, 1024)
		for _, rec := range recs {
			check(journal.KindGateway, rec.ID, rec.ModSeq)
		}
		if !more {
			break
		}
		after = next
	}
	for after := start; ; {
		recs, next, more := j.SubnetChanges(after, 1024)
		for _, rec := range recs {
			check(journal.KindSubnet, rec.ID, rec.ModSeq)
		}
		if !more {
			break
		}
		after = next
	}
	if missing > 0 {
		r.fail("subscriber: %d changed records never delivered at their final mod-seq", missing)
	}
}

// visIndex groups the subscriber's applied changes by record kind and key.
type visIndex map[[2]uint32][]event

func indexEvents(evs []event) visIndex {
	ix := visIndex{}
	for _, ev := range evs {
		k := [2]uint32{uint32(ev.kind), ev.key}
		ix[k] = append(ix[k], ev)
	}
	return ix
}

// visibleAt returns when the subscriber first applied a change of kind/key
// whose verification stamp reaches stamp — the moment a store with that
// stamp became visible (a later change to the record also shows it).
func (ix visIndex) visibleAt(kind journal.RecordKind, key uint32, stamp time.Time) (time.Time, bool) {
	for _, ev := range ix[[2]uint32{uint32(kind), key}] {
		if !ev.verified.Before(stamp) {
			return ev.at, true
		}
	}
	return time.Time{}, false
}

// seqVisibleAt returns when the subscriber had applied every change up to
// seq (evs in seq order).
func seqVisibleAt(evs []event, seq uint64) (time.Time, bool) {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].seq >= seq })
	if i == len(evs) {
		return time.Time{}, false
	}
	return evs[i].at, true
}

// storeCost is how many observations the journal counts for one store:
// a gateway observation stores each member interface, and a subnet
// observation stores a gateway (and its interface) per gateway address.
func storeCost(o observation) int {
	switch {
	case o.iface != nil:
		return 1
	case o.gw != nil:
		return 1 + len(o.gw.IfaceIPs)
	default:
		return 1 + 2*len(o.sn.GatewayIPs)
	}
}

// observation is one captured or generated store, exactly one field set.
type observation struct {
	iface *journal.IfaceObs
	gw    *journal.GatewayObs
	sn    *journal.SubnetObs
}
