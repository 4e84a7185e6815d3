package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fremont/internal/jserver"
	"fremont/internal/obs"
)

// span is one traced call into the program, recorded by the benchmark
// around a public function. Spans of one observation share Obs.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Obs    uint64    `json:"obs,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory; a nil tracer (the untraced run) records
// nothing.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// stampObs maps a verification stamp back to the observation that set
	// it, where a workload gives every store a distinct stamp.
	stampObs func(time.Time) uint64
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a completed span and returns its ID.
func (t *tracer) record(name string, parent, obsID uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.recordID(id, name, parent, obsID, start, end)
	return id
}

// recordID stores a completed span under an ID taken earlier (so children
// can name it as their parent before it ends).
func (t *tracer) recordID(id uint64, name string, parent, obsID uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Obs: obsID, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) obsOf(stamp time.Time) uint64 {
	if t == nil || t.stampObs == nil {
		return 0
	}
	return t.stampObs(stamp)
}

// selfTime returns, summed over spans named root, each span's duration
// minus the part covered by its descendants whose name starts with
// childPrefix — e.g. a manager batch's time outside the jclient calls.
func (t *tracer) selfTime(root, childPrefix string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := map[uint64]uint64{}
	for _, s := range t.spans {
		parent[s.ID] = s.Parent
	}
	covered := map[uint64][][2]time.Time{}
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, childPrefix) {
			continue
		}
		for p := s.Parent; p != 0; p = parent[p] {
			covered[p] = append(covered[p], [2]time.Time{s.Start, s.End})
		}
	}
	var self time.Duration
	for _, s := range t.spans {
		if s.Name != root {
			continue
		}
		self += s.End.Sub(s.Start) - union(covered[s.ID])
	}
	return self
}

// union is the total length of a set of intervals.
func union(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curE) {
			total += curE.Sub(curS)
			curS, curE = x[0], x[1]
			continue
		}
		if x[1].After(curE) {
			curE = x[1]
		}
	}
	return total + curE.Sub(curS)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// moduleNames are the manager batch's eight modules, in run order.
var moduleNames = []string{"RIPwatch", "ARPwatch", "EtherHostProbe", "SeqPing", "BroadcastPing", "Traceroute", "SubnetMasks", "DNS"}

// serverOps are the request types whose server-side latency is reported.
var serverOps = []string{"store_interface", "store_gateway", "store_subnet", "get_interfaces", "scan"}

// perLayerNames lists every per-layer metric, in BENCHMARK.json order:
// the names report gives.
func perLayerNames() []string {
	var r Result
	newLayers().report(&r)
	names := make([]string, len(r.Metrics))
	for i, m := range r.Metrics {
		names[i] = m.Name
	}
	return names
}

// sampleSet is a list of measured durations in seconds.
type sampleSet struct {
	mu sync.Mutex
	xs []float64
}

func (s *sampleSet) add(sec float64) {
	s.mu.Lock()
	s.xs = append(s.xs, sec)
	s.mu.Unlock()
}

func (s *sampleSet) median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(append([]float64(nil), s.xs...))
}

// moduleStats accumulates one explorer module's numbers over passes.
type moduleStats struct {
	wall                   time.Duration
	packets, found, stored int
}

// layers accumulates the per-layer counts of a traced run. Workloads fill
// what their path exercises; the rest reports as zero.
type layers struct {
	netsimSelf     time.Duration
	frames, events int
	batch          time.Duration
	modules        map[string]*moduleStats

	storeCalls, readCalls int
	storeTime, readTime   time.Duration
	sendTime, waitTime    time.Duration
	clientOps             int // operations issued on counted connections
	wire                  *wireCounts

	hists                         map[string]obs.HistSnapshot
	requests, batches             int64
	subPushes, subDrops, resyncs  int64
	walFsyncs, walGroups, walApps int64
	walBytes                      int64
	walOps                        int // store observations acknowledged

	saveSnapshot sampleSet
	recover      sampleSet
	monitorApply time.Duration

	records       int
	created, seen int // created records vs store responses that report it

	genLagMs []float64
	overhead float64
}

func newLayers() *layers {
	return &layers{modules: map[string]*moduleStats{}, hists: map[string]obs.HistSnapshot{}}
}

// addServer folds a server's registry (request latencies, batches,
// subscription counters, WAL counters) into the totals.
func (l *layers) addServer(srv *jserver.Server) {
	snap := srv.Obs().Snapshot()
	l.requests += srv.Stats().RequestsServed
	l.batches += snap.Counters["jserver_batches_total"]
	l.subPushes += snap.Counters["jserver_sub_pushes_total"]
	l.subDrops += snap.Counters["jserver_sub_dropped_events_total"]
	l.resyncs += snap.Counters["jserver_sub_resyncs_total"]
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "jserver_request_seconds{") || name == "wal_fsync_seconds" {
			l.hists[name] = mergeHist(l.hists[name], h)
		}
	}
	if srv.WAL != nil {
		st := srv.WAL.Stats()
		l.walFsyncs += st.Fsyncs
		l.walGroups += st.GroupCommits
		l.walApps += st.Appends
		l.walBytes += st.BytesAppended
	}
	l.records = srv.Journal().RecordCount()
}

func mergeHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	if a.Count == 0 {
		return b
	}
	out := obs.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for i, bk := range b.Buckets {
		if i < len(a.Buckets) {
			bk.Count += a.Buckets[i].Count
		}
		out.Buckets = append(out.Buckets, bk)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish adds the per-layer metrics to r and writes the run's spans
// beside its data directory.
func (l *layers) finish(r *Result, tr *tracer, p Params) error {
	l.report(r)
	return tr.write(filepath.Join(filepath.Dir(p.DataDir), p.Workload+".trace.jsonl"))
}

// report adds every per-layer metric to r.
func (l *layers) report(r *Result) {
	add := func(name, unit string, v float64) {
		r.add(Metric{Name: name, Unit: unit, Value: v, Layer: true})
	}
	add("netsim.self_s", "s", l.netsimSelf.Seconds())
	add("netsim.frames", "count", float64(l.frames))
	add("netsim.events", "count", float64(l.events))
	add("netsim.ns_per_event", "ns", ratio(float64(l.netsimSelf.Nanoseconds()), float64(l.events)))
	add("manager.batch_s", "s", l.batch.Seconds())
	for _, m := range moduleNames {
		ms := l.modules[m]
		if ms == nil {
			ms = &moduleStats{}
		}
		add("explorer."+m+".wall_s", "s", ms.wall.Seconds())
		add("explorer."+m+".packets", "count", float64(ms.packets))
		add("explorer."+m+".found", "count", float64(ms.found))
		add("explorer."+m+".stored", "count", float64(ms.stored))
	}
	add("jclient.store_calls", "count", float64(l.storeCalls))
	add("jclient.store_s", "s", l.storeTime.Seconds())
	add("jclient.read_calls", "count", float64(l.readCalls))
	add("jclient.read_s", "s", l.readTime.Seconds())
	add("jclient.send_s", "s", l.sendTime.Seconds())
	add("jclient.wait_s", "s", l.waitTime.Seconds())
	var out, in, writes float64
	if l.wire != nil {
		out, in, writes = float64(l.wire.bytesOut.Load()), float64(l.wire.bytesIn.Load()), float64(l.wire.writes.Load())
	}
	add("jwire.bytes_out_per_op", "B/op", ratio(out, float64(l.clientOps)))
	add("jwire.bytes_in_per_op", "B/op", ratio(in, float64(l.clientOps)))
	add("jwire.writes_per_op", "count", ratio(writes, float64(l.clientOps)))
	for _, op := range serverOps {
		h := l.hists["jserver_request_seconds{op="+op+"}"]
		add("jserver.request_p50_ms."+op, "ms", 1000*h.Quantile(0.5))
		add("jserver.request_p99_ms."+op, "ms", 1000*h.Quantile(0.99))
	}
	add("jserver.requests", "count", float64(l.requests))
	add("jserver.batches", "count", float64(l.batches))
	add("jserver.save_snapshot_s", "s", l.saveSnapshot.median())
	add("jserver.recover_s", "s", l.recover.median())
	add("jserver.sub_pushes", "count", float64(l.subPushes))
	add("jserver.sub_drops", "count", float64(l.subDrops))
	add("jserver.sub_resyncs", "count", float64(l.resyncs))
	add("analysis.monitor_apply_s", "s", l.monitorApply.Seconds())
	add("wal.fsyncs_per_op", "ratio", ratio(float64(l.walFsyncs), float64(l.walOps)))
	add("wal.group_size_mean", "count", ratio(float64(l.walApps), float64(l.walGroups)))
	fs := l.hists["wal_fsync_seconds"]
	add("wal.fsync_p50_ms", "ms", 1000*fs.Quantile(0.5))
	add("wal.fsync_p99_ms", "ms", 1000*fs.Quantile(0.99))
	add("wal.bytes_per_op", "B/op", ratio(float64(l.walBytes), float64(l.walOps)))
	add("journal.records", "count", float64(l.records))
	add("journal.created_ratio", "ratio", ratio(float64(l.created), float64(l.seen)))
	add("bench.gen_lag_p99_ms", "ms", quantile(append([]float64(nil), l.genLagMs...), 0.99))
	add("bench.trace_overhead", "ratio", l.overhead)
}
