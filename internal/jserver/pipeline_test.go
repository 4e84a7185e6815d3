// Pipelined write-path tests: many requests in flight on one
// connection must respond in order, batch into shared WAL commit
// groups, and preserve read-your-writes and namespace-scope semantics
// exactly as a serial connection would.
package jserver

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fremont/internal/jclient"
	"fremont/internal/journal"
	"fremont/internal/jwire"
	"fremont/internal/netsim/pkt"
	"fremont/internal/wal"
)

// startWALServer boots a server with a SyncAlways WAL so pipelining
// tests exercise the real group-commit path, not the no-WAL shortcut.
func startWALServer(t *testing.T) *Server {
	t.Helper()
	dir := t.TempDir()
	s := New(nil)
	s.SnapshotPath = filepath.Join(dir, "snap.jnl")
	l, err := wal.Open(wal.Options{
		Dir:    filepath.Join(dir, "wal"),
		Policy: wal.SyncAlways,
		// A small group window makes batching deterministic enough to
		// assert on without slowing the test measurably.
		GroupWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.WAL = l
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func pipeObs(n int) journal.IfaceObs {
	return journal.IfaceObs{
		IP:     pkt.IPv4(10, byte(n>>16), byte(n>>8), byte(n)),
		Name:   fmt.Sprintf("host-%d", n),
		Source: journal.SrcARP,
		At:     t0,
	}
}

// TestPipelinedStoresBatch fires a burst of stores down one pipeline
// and asserts every one is acknowledged, applied exactly once, and that
// the burst shared fsyncs through group commit instead of paying one
// per store.
func TestPipelinedStoresBatch(t *testing.T) {
	s := startWALServer(t)
	p, err := jclient.DialPipeline(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 100
	futs := make([]jclient.StoreFuture, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, p.StoreInterface(pipeObs(i)))
	}
	seen := make(map[journal.ID]bool, n)
	for i, f := range futs {
		id, created, err := f.Result()
		if err != nil || !created {
			t.Fatalf("store %d = %d, %v, %v", i, id, created, err)
		}
		if seen[id] {
			t.Fatalf("store %d returned duplicate id %d", i, id)
		}
		seen[id] = true
	}

	st := s.WAL.Stats()
	if st.Appends != n {
		t.Fatalf("WAL has %d appends, want %d", st.Appends, n)
	}
	if st.Fsyncs >= n {
		t.Fatalf("%d fsyncs for %d pipelined stores: no group commit", st.Fsyncs, n)
	}
	if st.GroupCommits < 1 || st.GroupCommits >= n {
		t.Fatalf("%d group commits for %d stores", st.GroupCommits, n)
	}
	if got := s.journal.RecordCount(); got != n {
		t.Fatalf("journal has %d records, want %d", got, n)
	}
}

// TestPipelinedReadYourWrites interleaves stores and queries in one
// pipeline: every query must observe the store pipelined immediately
// before it, exactly as a serial connection would.
func TestPipelinedReadYourWrites(t *testing.T) {
	s := startWALServer(t)
	p, err := jclient.DialPipeline(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	type pair struct {
		st jclient.StoreFuture
		q  jclient.IfacesFuture
	}
	var pairs []pair
	for i := 0; i < 32; i++ {
		o := pipeObs(i)
		pairs = append(pairs, pair{
			st: p.StoreInterface(o),
			q:  p.Interfaces(journal.Query{ByIP: o.IP, HasIP: true}),
		})
	}
	for i, pr := range pairs {
		if _, _, err := pr.st.Result(); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		recs, err := pr.q.Result()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(recs) != 1 || recs[0].Name != fmt.Sprintf("host-%d", i) {
			t.Fatalf("query %d did not see its preceding store: %v", i, recs)
		}
	}
}

// TestPipelinedNamespaceSwitch switches tenant scope mid-pipeline: the
// switch must apply to exactly the requests after it in pipeline order.
func TestPipelinedNamespaceSwitch(t *testing.T) {
	s := startWALServer(t)
	p, err := jclient.DialPipeline(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	def := p.StoreInterface(pipeObs(1))
	use := p.Use("acme")
	ten := p.StoreInterface(pipeObs(2))
	back := p.Use("")
	q := p.Interfaces(journal.Query{ByIP: pipeObs(2).IP, HasIP: true})

	if _, _, err := def.Result(); err != nil {
		t.Fatalf("default store: %v", err)
	}
	if err := use.Result(); err != nil {
		t.Fatalf("use acme: %v", err)
	}
	if _, _, err := ten.Result(); err != nil {
		t.Fatalf("tenant store: %v", err)
	}
	if err := back.Result(); err != nil {
		t.Fatalf("use default: %v", err)
	}
	recs, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("tenant record leaked into default journal: %v", recs)
	}
	if got := s.journal.RecordCount(); got != 1 {
		t.Fatalf("default journal has %d records, want 1", got)
	}
}

// TestPipelinedErrorKeepsOrder: a rejected request mid-pipeline must
// produce its error response in order without derailing its neighbors.
func TestPipelinedErrorKeepsOrder(t *testing.T) {
	s := startWALServer(t)
	s.TenantQuota = 1
	p, err := jclient.DialPipeline(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	use := p.Use("tiny")
	first := p.StoreInterface(pipeObs(1))
	second := p.StoreInterface(pipeObs(2)) // over quota: must fail
	back := p.Use("")
	after := p.StoreInterface(pipeObs(3)) // default journal: must succeed

	if err := use.Result(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := first.Result(); err != nil {
		t.Fatalf("first tenant store: %v", err)
	}
	if _, _, err := second.Result(); err == nil {
		t.Fatal("second tenant store exceeded quota but succeeded")
	}
	if err := back.Result(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := after.Result(); err != nil {
		t.Fatalf("store after failed request: %v", err)
	}
}

// TestPipelineThenSubscribe: a subscribe after pipelined stores must
// drain every pending response before the stream handshake, and the
// stream must carry the pipelined commits.
func TestPipelineThenSubscribe(t *testing.T) {
	s := startWALServer(t)
	p, err := jclient.DialPipeline(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 10; i++ {
		p.StoreInterface(pipeObs(i))
	}
	if err := p.Ping().Result(); err != nil {
		t.Fatal(err)
	}

	c, err := jclient.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(jclient.SubscribeOptions{Kinds: jwire.SubKindInterface})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 10 {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("stream closed after %d records: %v", got, sub.Err())
			}
			if ev.Iface != nil {
				got++
			}
		case <-deadline:
			t.Fatalf("saw %d of 10 pipelined stores on the stream", got)
		}
	}
}

// TestSnapshotRacesPipelinedBursts loops SaveSnapshot — rotation plus
// compaction — while four pipelined clients burst stores into a
// SyncAlways WAL server, then recovers a fresh server from the files:
// every acknowledged store must come back. A connection that took the
// snapshot barrier once per store instead of once per burst deadlocks
// here against the waiting snapshot.
func TestSnapshotRacesPipelinedBursts(t *testing.T) {
	const clients, bursts, burst = 4, 10, 25
	dir := t.TempDir()
	boot := func() *Server {
		s := New(nil)
		s.SnapshotPath = filepath.Join(dir, "snap.jnl")
		l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		s.WAL = l
		return s
	}
	s := boot()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var acked []pkt.IP
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		p, err := jclient.DialPipeline(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < bursts; b++ {
				obs := make([]journal.IfaceObs, burst)
				futs := make([]jclient.StoreFuture, burst)
				for i := range futs {
					obs[i] = pipeObs(c<<16 + b*burst + i)
					futs[i] = p.StoreInterface(obs[i])
				}
				for i, f := range futs {
					if _, _, err := f.Result(); err != nil {
						t.Errorf("client %d store: %v", c, err)
						return
					}
					mu.Lock()
					acked = append(acked, obs[i].IP)
					mu.Unlock()
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	saves := 0
	for running := true; running; saves++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := s.SaveSnapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", saves, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := boot()
	defer r.WAL.Close()
	if _, err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, ip := range acked {
		if recs := r.Journal().Interfaces(journal.Query{ByIP: ip, HasIP: true}); len(recs) != 1 {
			t.Fatalf("acknowledged store %v lost across %d snapshots", ip, saves)
		}
	}
	if got, want := r.Journal().RecordCount(), clients*bursts*burst; len(acked) != want || got != want {
		t.Fatalf("acked %d, recovered %d, issued %d", len(acked), got, want)
	}
}
