package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fremont/internal/jclient"
	"fremont/internal/journal"
	"fremont/internal/jserver"
	"fremont/internal/netsim/pkt"
)

// journal-100k-mixed settings. The journal follows the grid10k addressing
// plan: department subnet k is 10.(1+k/256).(k%256).0/24 with its gateway
// at .1 and hosts from .10.
const (
	mixedSubnets        = 10000
	mixedHostsPerNet    = 9 // plus the gateway interface: 100k interfaces
	mixedNetsPerGW      = 5
	mixedRate           = 500                     // re-observations/s, open loop
	mixedWorkingSet     = 400                     // hosts the re-observations cycle through
	mixedSnapshotPeriod = 2500 * time.Millisecond // one SaveSnapshot per period
	mixedScanEvery      = time.Second             // period of the operator's full paged scan
	mixedThink          = time.Millisecond        // operator think time between reads
	mixedSnapshotFile   = "journal.snap"
	mixedRecordsPerRun  = mixedSubnets*(mixedHostsPerNet+1) + mixedSubnets + mixedSubnets/mixedNetsPerGW
)

func gridSubnet(k int) pkt.Subnet {
	return pkt.SubnetOf(pkt.IPv4(10, byte(1+k/256), byte(k%256), 0), pkt.MaskBits(24))
}

func gridHost(k, h int) pkt.IP { return gridSubnet(k).Addr + pkt.IP(10+h) }

func gridMAC(seed int64, k, h int) pkt.MAC {
	v := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)<<8 + uint64(h)
	return pkt.MAC{0x02, byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// buildGridJournal writes the 100k-interface, 10k-subnet journal of the
// grid10k plan, stamped an hour before the run's stores.
func buildGridJournal(seed int64) *journal.Journal {
	j := journal.New()
	at := ingestEpoch.Add(-time.Hour)
	mask := pkt.MaskBits(24)
	for k := 0; k < mixedSubnets; k++ {
		sn := gridSubnet(k)
		j.StoreSubnet(journal.SubnetObs{Subnet: sn, Metric: 2, Source: journal.SrcRIP, At: at})
		for h := 0; h < mixedHostsPerNet; h++ {
			j.StoreInterface(journal.IfaceObs{
				IP: gridHost(k, h), HasMAC: true, MAC: gridMAC(seed, k, h),
				Name: fmt.Sprintf("h%d-%d.grid", k, h), HasMask: true, Mask: mask,
				Source: journal.SrcARP | journal.SrcDNS, At: at,
			})
		}
	}
	for g := 0; g < mixedSubnets/mixedNetsPerGW; g++ {
		var ips []pkt.IP
		var sns []pkt.Subnet
		for k := g * mixedNetsPerGW; k < (g+1)*mixedNetsPerGW; k++ {
			ips = append(ips, gridSubnet(k).Addr+1)
			sns = append(sns, gridSubnet(k))
		}
		j.StoreGateway(journal.GatewayObs{IfaceIPs: ips, Subnets: sns, Source: journal.SrcTraceroute, At: at})
	}
	return j
}

// mixedPlan is the re-observation stream: hosts of a seeded working set,
// re-seen by ARP in a fixed cycle, at mixedRate.
func mixedPlan(seed int64, seconds float64) []planned {
	rng := rand.New(rand.NewSource(seed))
	type host struct{ k, h int }
	set := make([]host, mixedWorkingSet)
	for i := range set {
		set[i] = host{rng.Intn(mixedSubnets), rng.Intn(mixedHostsPerNet)}
	}
	var plan []planned
	end := time.Duration(seconds * float64(time.Second))
	for t := time.Duration(0); t < end; t += time.Second / mixedRate {
		k := len(plan)
		hs := set[k%len(set)]
		o := journal.IfaceObs{IP: gridHost(hs.k, hs.h), HasMAC: true, MAC: gridMAC(seed, hs.k, hs.h), Source: journal.SrcARP, At: stampOf(k)}
		plan = append(plan, planned{due: t, o: observation{iface: &o}})
	}
	return plan
}

type mixedState struct {
	plan   []planned
	srv    *jserver.Server
	w      *watcher
	pipe   *jclient.Pipeline
	reader *jclient.Client
}

func (st *mixedState) close(lay *layers) {
	if st.pipe != nil {
		st.pipe.Close()
	}
	if st.reader != nil {
		st.reader.Close()
	}
	if st.w != nil {
		st.w.close(lay)
	}
	if st.srv != nil {
		closeServer(st.srv, lay)
	}
}

// operator is the closed-loop reader: indexed /24 range queries (the
// fremont-query subnet view) with mixedThink between them, and a full
// paged interface scan every mixedScanEvery.
type operator struct {
	c       *jclient.Client
	rng     *rand.Rand
	queries []float64   // ms
	scans   []float64   // s
	opAt    []time.Time // when each query and scan page was issued
	failed  int
	lay     *layers
	tr      *tracer
	start   time.Time
	// traced and untraced split the query latencies by whether the
	// second they fell in was traced (odd seconds of a traced run).
	traced, untraced []float64
}

func (op *operator) tracing(t time.Time) *tracer {
	if op.tr == nil || int(t.Sub(op.start)/time.Second)%2 == 0 {
		return nil
	}
	return op.tr
}

func (op *operator) run(stop <-chan struct{}) {
	nextScan := op.start.Add(mixedScanEvery)
	for {
		select {
		case <-stop:
			return
		case <-time.After(mixedThink):
		}
		start := time.Now()
		if !start.Before(nextScan) {
			nextScan = nextScan.Add(mixedScanEvery)
			recs := 0
			var cursor journal.ID
			for {
				page, next, more, err := op.c.ScanInterfaces(cursor, 0, journal.Query{})
				if err != nil {
					break // the scan comes up short: counted below
				}
				recs += len(page)
				op.opAt = append(op.opAt, start)
				op.lay.clientOps++
				if !more {
					break
				}
				cursor = next
			}
			end := time.Now()
			op.tracing(start).record("jclient.scan", 0, 0, start, end)
			scan := end.Sub(start).Seconds()
			if recs < mixedSubnets*(mixedHostsPerNet+1) {
				op.failed++
				scan = math.Inf(1) // a failed scan misses every latency limit
			}
			op.scans = append(op.scans, scan)
			op.lay.readCalls++
			op.lay.readTime += end.Sub(start)
			continue
		}
		sn := gridSubnet(op.rng.Intn(mixedSubnets))
		recs, err := op.c.Interfaces(journal.Query{HasRange: true, IPLo: sn.Addr, IPHi: sn.Addr + 256})
		end := time.Now()
		tr := op.tracing(start)
		tr.record("jclient.query", 0, 0, start, end)
		lat := ms(end.Sub(start))
		if err != nil || len(recs) != mixedHostsPerNet+1 {
			op.failed++
			lat = math.Inf(1) // a failed query misses every latency limit
		}
		op.queries = append(op.queries, lat)
		op.opAt = append(op.opAt, start)
		if tr != nil {
			op.traced = append(op.traced, lat)
		} else {
			op.untraced = append(op.untraced, lat)
		}
		op.lay.readCalls++
		op.lay.readTime += end.Sub(start)
		op.lay.clientOps++
	}
}

func runMixed(p Params) (*Result, error) {
	r := &Result{}
	lay := newLayers()
	tr := newTracer(p.Trace)
	var wc *wireCounts
	if tr != nil {
		tr.stampObs = obsOfStamp
		wc = &wireCounts{}
	}
	opts := dialOpts(wc)
	reps := 0
	var dir string
	st, err := repeatSetup(r, func() (*mixedState, error) {
		st := &mixedState{}
		dir = filepath.Join(p.DataDir, fmt.Sprintf("server%d", reps))
		reps++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return st, err
		}
		j := buildGridJournal(p.Seed)
		if err := os.WriteFile(filepath.Join(dir, mixedSnapshotFile), jserver.EncodeSnapshot(j), 0o644); err != nil {
			return st, err
		}
		st.plan = mixedPlan(p.Seed, p.Seconds)
		var err error
		if st.srv, err = startServer(dir, lay); err != nil {
			return st, err
		}
		if n := st.srv.Journal().RecordCount(); n != mixedRecordsPerRun {
			return st, fmt.Errorf("recovered %d records from the set-up snapshot, want %d", n, mixedRecordsPerRun)
		}
		if st.w, err = startWatcher(st.srv.Addr(), tr, opts); err != nil {
			return st, err
		}
		if st.pipe, err = jclient.DialPipeline(st.srv.Addr(), opts...); err != nil {
			return st, err
		}
		st.reader, err = jclient.Dial(st.srv.Addr(), opts...)
		return st, err
	}, func(st *mixedState) { st.close(newLayers()) })
	if err != nil {
		return nil, err
	}
	recoverS := lay.recover.median()
	*lay = *newLayers()
	lay.recover.add(recoverS)
	lay.wire = wc

	j := st.srv.Journal()
	seq0, stores0 := j.CurSeq(), j.StatsSnapshot().Stores
	start := time.Now()
	runFor := time.Duration(p.Seconds * float64(time.Second))
	// One snapshot in the middle of every period.
	snapshots := int(runFor / mixedSnapshotPeriod)
	if snapshots < 1 {
		snapshots = 1
	}
	period := runFor / time.Duration(snapshots)

	// Harness: SaveSnapshot on a fixed period, as snapshotLoop would.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var snapErr error
	var snapCount int
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTimer(period / 2)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			s := time.Now()
			if err := st.srv.SaveSnapshot(); err != nil {
				snapErr = err
				return
			}
			e := time.Now()
			tr.record("jserver.save_snapshot", 0, 0, s, e)
			lay.saveSnapshot.add(e.Sub(s).Seconds())
			snapCount++
			t.Reset(period)
		}
	}()

	// The operator reads in a closed loop on the second connection. A
	// traced run traces every other second of the run, stores and reads
	// alike; the untraced seconds are the baseline for the overhead.
	op := &operator{c: st.reader, rng: rand.New(rand.NewSource(p.Seed + 1)), lay: lay, tr: tr, start: start}
	wg.Add(1)
	go func() {
		defer wg.Done()
		op.run(stop)
	}()
	cpuDone := make(chan struct{})
	cpu := cpuWindows(start, period, snapshots, cpuDone)
	outs := runOpenLoop(st.pipe, st.plan, 0, start, tr, alternate(tr, mixedRate), lay, p.Drop)
	close(stop)
	wg.Wait()
	close(cpuDone)
	perWindow := make([]int, snapshots)
	count := func(t time.Time) {
		if k := int(t.Sub(start) / period); k >= 0 && k < snapshots {
			perWindow[k]++
		}
	}
	for _, o := range outs {
		count(o.due)
	}
	for _, t := range op.opAt {
		count(t)
	}
	spent := <-cpu
	cpuPerOp(r, spent, perWindow[:len(spent)])
	if snapErr != nil {
		return nil, snapErr
	}

	if err := st.w.waitFor(j.CurSeq(), 60*time.Second); err != nil {
		r.fail("%v", err)
	}
	reportHeap(r, liveHeap())
	st.w.checkStream(r, j, seq0)
	ix := indexEvents(st.w.snapshotEvents())
	// Stores are scored in windows of one snapshot period each.
	acks := make([][]float64, snapshots+1)
	vis := make([][]float64, len(acks))
	var lags []float64
	cost, invisible := 0, 0
	for i, o := range outs {
		r.Attempted++
		win := int(o.due.Sub(start) / period)
		if o.err != nil {
			r.Failed++
			// A failed store misses every latency limit.
			acks[win] = append(acks[win], math.Inf(1))
			continue
		}
		cost += o.cost
		acks[win] = append(acks[win], ms(o.acked.Sub(o.due)))
		lags = append(lags, ms(o.sent.Sub(o.due)))
		at, ok := ix.visibleAt(o.kind, o.key, stampOf(i))
		if !ok {
			invisible++
			continue
		}
		vis[win] = append(vis[win], ms(at.Sub(o.due)))
		if o.created {
			lay.created++
		}
		lay.seen++
	}
	r.Attempted += len(op.queries) + len(op.scans)
	r.Failed += op.failed
	if invisible > 0 {
		r.fail("%d acknowledged stores never reached the subscriber", invisible)
	}
	if got := j.StatsSnapshot().Stores - stores0; got != cost {
		r.fail("journal applied %d observations, %d acknowledged", got, cost)
	}
	// The last snapshot must restore to the live journal's record count
	// (re-observations create no records, so the count is fixed).
	data, err := os.ReadFile(filepath.Join(dir, mixedSnapshotFile))
	if err != nil {
		return nil, err
	}
	restored := journal.New()
	if err := jserver.RestoreSnapshot(restored, data); err != nil {
		r.fail("last snapshot does not restore: %v", err)
	} else if restored.RecordCount() != j.RecordCount() {
		r.fail("last snapshot restores %d records, live journal has %d", restored.RecordCount(), j.RecordCount())
	}
	if snapCount == 0 {
		r.fail("no snapshot was taken during the run")
	}

	latencyMetrics(r, "store_ack", acks)
	latencyMetrics(r, "visible", vis)
	latencyMetrics(r, "query", [][]float64{op.queries})
	r.add(Metric{Name: "scan_s", Unit: "s", Value: median(op.scans), N: len(op.scans)})
	lay.genLagMs = lags
	if p.Trace {
		lay.walOps = len(outs)
		lay.clientOps += len(outs)
		lay.overhead = median(op.traced)/median(op.untraced) - 1
	}
	st.close(lay)
	if p.Trace {
		return r, lay.finish(r, tr, p)
	}
	return r, nil
}
