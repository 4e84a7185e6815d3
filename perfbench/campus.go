package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fremont/internal/core"
	"fremont/internal/explorer"
	"fremont/internal/jclient"
	"fremont/internal/journal"
	"fremont/internal/netsim/campus"
	"fremont/internal/netsim/pkt"
)

// campusCycle is how many distinct campuses a campus-discovery run cycles
// through: pass i explores the campus of seed base+(i mod campusCycle), so
// coverage and probes_per_discovery do not depend on how many passes fit.
// Set-up computes one reference pass per campus.
const campusCycle = setupReps

// campusSeed is the simulation seed of the i-th campus of a run.
func campusSeed(seed int64, i int) int64 { return seed*1000 + int64(i%campusCycle) }

// campusConfig is the paper's 114-subnet campus without background
// chatter or diurnal liveness, so every pass of one seed sees the same
// network.
func campusConfig(seed int64) campus.Config {
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Chatter = false
	cfg.Liveness = false
	return cfg
}

// discovery is what one pass found, the quantities checked against the
// in-process reference pass of the same seed.
type discovery struct {
	ifaces, subnets, gateways int
	matched, truth            int // records matching ground truth / ground-truth size
	packets                   int
	stores                    int // observations the journal applied
}

func (d discovery) records() int { return d.ifaces + d.subnets + d.gateways }

func (d discovery) String() string {
	return fmt.Sprintf("%d interfaces, %d subnets, %d gateways, coverage %d/%d, %d packets, %d observations",
		d.ifaces, d.subnets, d.gateways, d.matched, d.truth, d.packets, d.stores)
}

// measure scores a journal against the campus's ground truth: every node
// interface address, every live subnet, every gateway node.
func measure(c *campus.Campus, j *journal.Journal, reps []*explorer.Report) discovery {
	d := discovery{ifaces: j.NumInterfaces(), subnets: j.NumSubnets(), gateways: j.NumGateways(), stores: j.StatsSnapshot().Stores}
	for _, rep := range reps {
		d.packets += rep.PacketsSent
	}
	ifaceOwner := map[pkt.IP]int{} // interface address -> node index
	for i, nd := range c.Net.Nodes {
		for _, ifc := range nd.Ifaces {
			ifaceOwner[ifc.IP] = i
		}
	}
	gwNode := map[int]bool{}
	for _, gw := range c.Gateways {
		for _, ifc := range gw.Ifaces {
			gwNode[ifaceOwner[ifc.IP]] = true
		}
	}
	live := map[pkt.IP]bool{}
	for _, sn := range c.Live {
		live[sn.Addr] = true
	}
	d.truth = len(ifaceOwner) + len(live) + len(c.Gateways)

	seenIP := map[pkt.IP]bool{}
	for _, rec := range j.Interfaces(journal.Query{}) {
		if _, ok := ifaceOwner[rec.IP]; ok && !seenIP[rec.IP] {
			seenIP[rec.IP] = true
			d.matched++
		}
	}
	for _, sn := range j.Subnets() {
		if live[sn.Subnet.Addr] {
			d.matched++
		}
	}
	foundGW := map[int]bool{}
	for _, gw := range j.Gateways() {
		for _, id := range gw.Ifaces {
			rec, ok := j.Interface(id)
			if !ok {
				continue
			}
			if n, ok := ifaceOwner[rec.IP]; ok && gwNode[n] && !foundGW[n] {
				foundGW[n] = true
				d.matched++
				break
			}
		}
	}
	return d
}

// referencePass runs one manager batch over an in-process journal — the
// oracle each TCP pass of the same seed must reproduce exactly.
func referencePass(seed int64) (discovery, error) {
	sys := core.NewSystem(campusConfig(seed))
	sys.Advance(5 * time.Minute)
	reps, err := sys.RunManagerBatch(sys.NewManager(""))
	if err != nil {
		return discovery{}, err
	}
	return measure(sys.Campus, sys.J, reps), nil
}

func runCampus(p Params) (*Result, error) {
	r := &Result{}
	var refs []discovery
	_, err := repeatSetup(r, func() (struct{}, error) {
		d, err := referencePass(campusSeed(p.Seed, len(refs)))
		refs = append(refs, d)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	var heap uint64
	lay := newLayers()
	tr := newTracer(p.Trace)
	var untracedPass, tracedPass, passTimes []float64
	var acks, vis [][]float64
	found := map[int64]discovery{}
	records := 0
	var busy float64
	var cpu []time.Duration
	var ops []int
	run := startWatch()
	for pass := 0; ; pass++ {
		elapsed := run.seconds()
		// A traced run traces every other cycle of campuses; the untraced
		// cycles are the baseline for the tracing overhead.
		traced := p.Trace && (pass/campusCycle)%2 == 1
		if elapsed >= p.Seconds && pass%campusCycle == 0 && pass > 0 && (!p.Trace || len(tracedPass) > 0) {
			break
		}
		var ptr *tracer
		if traced {
			ptr = tr
		}
		seed := campusSeed(p.Seed, pass)
		out, err := campusPass(p, pass, seed, ptr, lay, r)
		if err != nil {
			return nil, err
		}
		r.Attempted += out.stores
		heap = max(heap, out.heap)
		r.Failed += out.failed
		ref := refs[pass%campusCycle]
		if out.d != ref {
			r.fail("pass %d (seed %d) over TCP found %v; the in-process pass found %v", pass, seed, out.d, ref)
		}
		found[seed] = out.d
		records += out.d.records()
		busy += out.seconds
		cpu = append(cpu, out.cpu)
		ops = append(ops, out.ops)
		passTimes = append(passTimes, out.seconds)
		if traced {
			tracedPass = append(tracedPass, out.seconds)
		} else {
			untracedPass = append(untracedPass, out.seconds)
		}
		acks = append(acks, out.acks)
		vis = append(vis, out.vis)
	}
	reportHeap(r, heap)

	// Coverage and probes per discovery sum over the run's campuses.
	var matched, truth, packets, recs int
	for _, d := range found {
		matched += d.matched
		truth += d.truth
		packets += d.packets
		recs += d.records()
	}
	latencyMetrics(r, "store_ack", acks)
	latencyMetrics(r, "visible", vis)
	cpuPerOp(r, cpu, ops)
	r.add(Metric{Name: "discovery_pass_s", Unit: "s", Value: median(passTimes), N: len(passTimes)})
	r.add(Metric{Name: "discoveries_per_s", Unit: "1/s", Value: float64(records) / busy, N: len(passTimes)})
	r.add(Metric{Name: "coverage", Unit: "ratio", Value: ratio(float64(matched), float64(truth)), N: len(found)})
	r.add(Metric{Name: "probes_per_discovery", Unit: "count", Value: ratio(float64(packets), float64(recs)), N: len(found)})
	if p.Trace {
		lay.netsimSelf = tr.selfTime("manager.batch", "jclient.")
		lay.overhead = median(tracedPass)/median(untracedPass) - 1
		return r, lay.finish(r, tr, p)
	}
	return r, nil
}

// passOut is one TCP pass's outcome.
type passOut struct {
	d         discovery
	seconds   float64
	acks, vis []float64
	cpu       time.Duration
	ops       int    // store and read calls
	heap      uint64 // live heap the pass added, campus and server alive
	stores    int
	failed    int
}

// campusPass runs one discovery pass the way fremont-explore -manager
// does against a fresh fremontd: a lazily dialed pool under Buffered, one
// manager batch, a final flush. A subscriber feeds an analysis.Monitor.
func campusPass(p Params, pass int, seed int64, tr *tracer, lay *layers, r *Result) (passOut, error) {
	var out passOut
	base := liveHeap()
	var wc *wireCounts
	if tr != nil {
		if lay.wire == nil {
			lay.wire = &wireCounts{}
		}
		wc = lay.wire
	}
	srv, err := startServer(filepath.Join(p.DataDir, fmt.Sprintf("pass%d", pass)), lay)
	if err != nil {
		return out, err
	}
	opts := dialOpts(wc)
	w, err := startWatcher(srv.Addr(), tr, opts)
	if err != nil {
		srv.Close()
		return out, err
	}
	pool := jclient.NewPool(srv.Addr(), 4, opts...)
	sink := &trackSink{b: pool.Buffered(0), j: srv.Journal(), tr: tr, lay: lay}
	if p.Drop > 0 && pass == 0 {
		sink.drop = p.Drop
	}

	start, cpu0 := time.Now(), cpuTime()
	passID := tr.newID()
	sys := core.NewSystem(campusConfig(seed))
	sys.Sink = sink
	if tr != nil {
		sys.Log = sink.logHook
	}
	sys.Advance(5 * time.Minute)
	mgr := sys.NewManager("")
	sink.batchID = tr.newID()
	sink.parent = sink.batchID
	bStart := time.Now()
	reps, err := sys.RunManagerBatch(mgr)
	bEnd := time.Now()
	sink.endModule(bEnd)
	tr.recordID(sink.batchID, "manager.batch", passID, 0, bStart, bEnd)
	if err != nil {
		return out, err
	}
	if err := sink.Flush(); err != nil {
		sink.failed++
	}
	end := time.Now()
	tr.recordID(passID, "pass", 0, 0, start, end)
	out.seconds = end.Sub(start).Seconds()
	out.cpu = cpuTime() - cpu0

	if err := w.waitFor(srv.Journal().CurSeq(), 30*time.Second); err != nil {
		r.fail("pass %d: %v", pass, err)
	}
	w.checkStream(r, srv.Journal(), 0)
	evs := w.snapshotEvents()
	for _, f := range sink.flushes {
		at := f.at
		if f.changed {
			if t, ok := seqVisibleAt(evs, f.seq); ok {
				at = t
			} else {
				r.fail("pass %d: change %d never reached the subscriber", pass, f.seq)
				continue
			}
		}
		for _, issued := range f.issued {
			out.acks = append(out.acks, ms(f.at.Sub(f.sent)))
			out.vis = append(out.vis, ms(at.Sub(issued)))
		}
	}
	out.d = measure(sys.Campus, srv.Journal(), reps)
	if out.d.stores != sink.expected {
		r.fail("pass %d: journal applied %d observations, explorers issued %d", pass, out.d.stores, sink.expected)
	}
	out.stores = sink.n
	out.ops = sink.storeCalls + sink.readCalls
	out.failed = sink.failed

	if tr != nil {
		lay.frames += sys.Campus.Net.TotalFrames()
		lay.events += int(sys.Campus.Net.Sched.Stats().Executed)
		lay.batch += bEnd.Sub(bStart)
		for _, rep := range reps {
			ms := lay.module(rep.Module)
			ms.packets += rep.PacketsSent
			ms.found += len(rep.Interfaces) + len(rep.Subnets) + rep.Gateways
			ms.stored += rep.Stored
		}
		lay.storeCalls += sink.storeCalls
		lay.readCalls += sink.readCalls
		lay.storeTime += sink.storeTime
		lay.readTime += sink.readTime
		lay.clientOps += sink.storeCalls + sink.readCalls
		lay.walOps += sink.n
		js := srv.Journal().StatsSnapshot()
		lay.created += js.NewRecords
		lay.seen += js.Stores
	}
	if end := liveHeap(); end > base {
		out.heap = end - base
	}
	snap := startWatch()
	if err := srv.SaveSnapshot(); err != nil {
		return out, err
	}
	lay.saveSnapshot.add(snap.seconds())
	w.close(lay)
	pool.Close()
	if err := closeServer(srv, lay); err != nil {
		return out, err
	}
	return out, nil
}

func (l *layers) module(name string) *moduleStats {
	ms := l.modules[name]
	if ms == nil {
		ms = &moduleStats{}
		l.modules[name] = ms
	}
	return ms
}

// flushAck is one Buffered flush: when it went out and was acknowledged
// durable, the journal's mod-seq right after, and when each of its stores
// was issued.
type flushAck struct {
	sent    time.Time // when the flush went out: the stores' due time
	at      time.Time
	seq     uint64
	changed bool // the flush changed the journal
	issued  []time.Time
}

// trackSink wraps the explorer's journal.Sink (a jclient.Buffered) to
// record each flush — when it went out, when it was acknowledged durable,
// and when each of its stores was issued — and, when
// tracing, to record a span per call under the running module's span.
// It forwards the Scanner and Changer interfaces so the manager's paged
// reads take the same path as without it.
type trackSink struct {
	b   *jclient.Buffered
	j   *journal.Journal // the server's journal, for the post-flush mod-seq
	tr  *tracer
	lay *layers

	mu                    sync.Mutex
	batchID, parent       uint64
	modName               string
	modID                 uint64
	modStart              time.Time
	n, drop               int // stores issued; 1-based store to drop silently (self-test)
	expected              int // observations the journal should apply
	failed                int
	queued                []time.Time
	flushes               []flushAck
	prevSeq               uint64
	storeCalls, readCalls int
	storeTime, readTime   time.Duration
}

var (
	_ journal.Sink    = (*trackSink)(nil)
	_ journal.Scanner = (*trackSink)(nil)
	_ journal.Changer = (*trackSink)(nil)
)

// logHook receives the manager's progress lines; "manager: running X"
// marks the start of module X (and the end of the one before).
func (s *trackSink) logHook(format string, args ...any) {
	if !strings.HasPrefix(format, "manager: running ") || len(args) == 0 {
		return
	}
	name, _ := args[0].(string)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endModuleLocked(now)
	s.modName, s.modID, s.modStart = name, s.tr.newID(), now
	s.parent = s.modID
}

func (s *trackSink) endModule(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endModuleLocked(t)
}

func (s *trackSink) endModuleLocked(t time.Time) {
	if s.modID == 0 {
		return
	}
	s.tr.recordID(s.modID, "explorer."+s.modName, s.batchID, 0, s.modStart, t)
	s.lay.module(s.modName).wall += t.Sub(s.modStart)
	s.modID = 0
	s.parent = s.batchID
}

// store runs one store call: cost is what the journal will count for it.
func (s *trackSink) store(cost int, fn func() error) error {
	start := time.Now()
	s.mu.Lock()
	s.n++
	obsID := uint64(s.n)
	s.expected += cost
	dropped := s.n == s.drop
	s.mu.Unlock()
	if dropped {
		return nil
	}
	err := fn()
	end := time.Now()
	s.tr.record("jclient.store", s.parent, obsID, start, end)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.storeCalls++
	s.storeTime += end.Sub(start)
	s.queued = append(s.queued, start)
	if err != nil {
		s.failed++
	}
	if s.b.Pending() == 0 {
		s.ackedLocked(start, end)
	}
	return err
}

// ackedLocked records a flush sent at sent and acknowledged at t.
func (s *trackSink) ackedLocked(sent, t time.Time) {
	if len(s.queued) == 0 {
		return
	}
	seq := s.j.CurSeq()
	s.flushes = append(s.flushes, flushAck{sent: sent, at: t, seq: seq, changed: seq != s.prevSeq, issued: s.queued})
	s.queued = nil
	s.prevSeq = seq
}

// Flush pushes out queued stores and records their acknowledgment.
func (s *trackSink) Flush() error {
	sent := time.Now()
	err := s.b.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.failed += len(s.queued)
		s.queued = nil
		return err
	}
	s.ackedLocked(sent, time.Now())
	return nil
}

// read runs one read call; Buffered flushes before every read, so the
// flush is done (and its stores acknowledged) first.
func read[T any](s *trackSink, fn func() (T, error)) (T, error) {
	start := time.Now()
	if err := s.Flush(); err != nil {
		var zero T
		return zero, err
	}
	v, err := fn()
	end := time.Now()
	s.tr.record("jclient.read", s.parent, 0, start, end)
	s.mu.Lock()
	s.readCalls++
	s.readTime += end.Sub(start)
	if err != nil {
		s.failed++
	}
	s.mu.Unlock()
	return v, err
}

func (s *trackSink) StoreInterface(o journal.IfaceObs) (id journal.ID, created bool, err error) {
	err = s.store(1, func() error {
		var e error
		id, created, e = s.b.StoreInterface(o)
		return e
	})
	return id, created, err
}

func (s *trackSink) StoreGateway(o journal.GatewayObs) (id journal.ID, err error) {
	err = s.store(storeCost(observation{gw: &o}), func() error {
		var e error
		id, e = s.b.StoreGateway(o)
		return e
	})
	return id, err
}

func (s *trackSink) StoreSubnet(o journal.SubnetObs) (id journal.ID, err error) {
	err = s.store(storeCost(observation{sn: &o}), func() error {
		var e error
		id, e = s.b.StoreSubnet(o)
		return e
	})
	return id, err
}

func (s *trackSink) Delete(kind journal.RecordKind, id journal.ID) (bool, error) {
	return read(s, func() (bool, error) { return s.b.Delete(kind, id) })
}

func (s *trackSink) Interfaces(q journal.Query) ([]*journal.InterfaceRec, error) {
	return read(s, func() ([]*journal.InterfaceRec, error) { return s.b.Interfaces(q) })
}

func (s *trackSink) Gateways() ([]*journal.GatewayRec, error) {
	return read(s, s.b.Gateways)
}

func (s *trackSink) Subnets() ([]*journal.SubnetRec, error) {
	return read(s, s.b.Subnets)
}

type page[T any] struct {
	recs []T
	next journal.ID
	more bool
}

func (s *trackSink) ScanInterfaces(cursor journal.ID, limit int, q journal.Query) ([]*journal.InterfaceRec, journal.ID, bool, error) {
	pg, err := read(s, func() (page[*journal.InterfaceRec], error) {
		recs, next, more, err := s.b.ScanInterfaces(cursor, limit, q)
		return page[*journal.InterfaceRec]{recs, next, more}, err
	})
	return pg.recs, pg.next, pg.more, err
}

func (s *trackSink) ScanGateways(cursor journal.ID, limit int) ([]*journal.GatewayRec, journal.ID, bool, error) {
	pg, err := read(s, func() (page[*journal.GatewayRec], error) {
		recs, next, more, err := s.b.ScanGateways(cursor, limit)
		return page[*journal.GatewayRec]{recs, next, more}, err
	})
	return pg.recs, pg.next, pg.more, err
}

func (s *trackSink) ScanSubnets(cursor journal.ID, limit int) ([]*journal.SubnetRec, journal.ID, bool, error) {
	pg, err := read(s, func() (page[*journal.SubnetRec], error) {
		recs, next, more, err := s.b.ScanSubnets(cursor, limit)
		return page[*journal.SubnetRec]{recs, next, more}, err
	})
	return pg.recs, pg.next, pg.more, err
}

type changes[T any] struct {
	recs []T
	next uint64
	more bool
}

func (s *trackSink) InterfaceChanges(after uint64, limit int) ([]*journal.InterfaceRec, uint64, bool, error) {
	c, err := read(s, func() (changes[*journal.InterfaceRec], error) {
		recs, next, more, err := s.b.InterfaceChanges(after, limit)
		return changes[*journal.InterfaceRec]{recs, next, more}, err
	})
	return c.recs, c.next, c.more, err
}

func (s *trackSink) GatewayChanges(after uint64, limit int) ([]*journal.GatewayRec, uint64, bool, error) {
	c, err := read(s, func() (changes[*journal.GatewayRec], error) {
		recs, next, more, err := s.b.GatewayChanges(after, limit)
		return changes[*journal.GatewayRec]{recs, next, more}, err
	})
	return c.recs, c.next, c.more, err
}

func (s *trackSink) SubnetChanges(after uint64, limit int) ([]*journal.SubnetRec, uint64, bool, error) {
	c, err := read(s, func() (changes[*journal.SubnetRec], error) {
		recs, next, more, err := s.b.SubnetChanges(after, limit)
		return changes[*journal.SubnetRec]{recs, next, more}, err
	})
	return c.recs, c.next, c.more, err
}
