package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"sort"
	"time"

	"fremont/internal/core"
	"fremont/internal/jclient"
	"fremont/internal/journal"
	"fremont/internal/jserver"
	"fremont/internal/netsim/pkt"
)

// observation-ingest settings.
const (
	ingestRate       = 1000 // stores/s offered in the fixed-rate phase
	ingestFixed      = 0.6  // share of the run at the fixed rate
	ingestSteps      = 8    // sweep steps after it, each ingestStepGain x faster
	ingestStepGain   = 1.6
	ingestLimitMs    = 25.0 // p99 store-ack limit a sweep step must meet
	ingestNewShare   = 20   // percent of distinct addresses moved to a fresh network each cycle
	ingestTraceBlock = 500  // traced run: stores per traced/untraced block
	ingestNetworks   = 4    // distinct networks the moved /24s cycle through
)

// recorder captures the positive observations an in-process discovery
// pass stores, in order.
type recorder struct {
	journal.Local
	stream []observation
}

func (r *recorder) StoreInterface(o journal.IfaceObs) (journal.ID, bool, error) {
	if !(o.MaskProbeFailed && !o.HasMAC && !o.HasMask && o.Name == "" && !o.RIPSource && !o.RIPPromiscuous) {
		c := o
		r.stream = append(r.stream, observation{iface: &c})
	}
	return r.Local.StoreInterface(o)
}

func (r *recorder) StoreGateway(o journal.GatewayObs) (journal.ID, error) {
	c := o
	c.IfaceIPs = append([]pkt.IP(nil), o.IfaceIPs...)
	c.Subnets = append([]pkt.Subnet(nil), o.Subnets...)
	r.stream = append(r.stream, observation{gw: &c})
	return r.Local.StoreGateway(o)
}

func (r *recorder) StoreSubnet(o journal.SubnetObs) (journal.ID, error) {
	c := o
	c.GatewayIPs = append([]pkt.IP(nil), o.GatewayIPs...)
	r.stream = append(r.stream, observation{sn: &c})
	return r.Local.StoreSubnet(o)
}

// captureStream runs one in-process manager batch on the seed's campus
// and returns the observations its modules stored.
func captureStream(seed int64) ([]observation, error) {
	sys := core.NewSystem(campusConfig(seed))
	rec := &recorder{Local: journal.Local{J: sys.J}}
	sys.Sink = rec
	sys.Advance(5 * time.Minute)
	if _, err := sys.RunManagerBatch(sys.NewManager("")); err != nil {
		return nil, err
	}
	return rec.stream, nil
}

// shifter re-addresses one replay cycle: addresses in the moved /24s go
// to the cycle's network, one of ingestNetworks in turn; the rest replay
// as they were (re-verifications). The first ingestNetworks cycles
// therefore create records for the moved addresses, and later cycles only
// re-verify. Bounding the networks bounds the journal, and with it the
// subscriber's Monitor, whose per-change cost grows with its record count.
type shifter struct {
	moved map[uint32]bool // /24s (address >> 8) that move
	cycle int
}

func (s shifter) ip(ip pkt.IP) pkt.IP {
	if !s.moved[uint32(ip)>>8] {
		return ip
	}
	return pkt.IP(10<<24 | uint32(s.cycle%ingestNetworks+1)<<16 | uint32(ip)&0xffff)
}

// movedSubnets picks, in a seeded order, the /24s whose addresses move:
// as many as fit in ingestNewShare percent of the stream's distinct
// addresses. Filling a fixed share (rather than drawing each /24 by
// chance) keeps the journal's size, and the Monitor's cost, the same for
// every seed — one large /24 would otherwise double the moved records.
func movedSubnets(stream []observation, seed int64) map[uint32]bool {
	ips := map[pkt.IP]bool{}
	for _, o := range stream {
		switch {
		case o.iface != nil:
			ips[o.iface.IP] = true
		case o.gw != nil:
			for _, ip := range o.gw.IfaceIPs {
				ips[ip] = true
			}
		default:
			for _, ip := range o.sn.GatewayIPs {
				ips[ip] = true
			}
		}
	}
	per := map[uint32]int{}
	for ip := range ips {
		per[uint32(ip)>>8]++
	}
	keys := make([]uint32, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	rank := func(k uint32) uint32 {
		h := fnv.New32a()
		fmt.Fprintf(h, "%d/%d", seed, k)
		return h.Sum32()
	}
	sort.Slice(keys, func(a, b int) bool { return rank(keys[a]) < rank(keys[b]) })
	moved := map[uint32]bool{}
	target, n := len(ips)*ingestNewShare/100, 0
	for _, k := range keys {
		if n+per[k] <= target {
			moved[k] = true
			n += per[k]
		}
	}
	return moved
}

func (s shifter) ips(ips []pkt.IP) []pkt.IP {
	out := make([]pkt.IP, len(ips))
	for i, ip := range ips {
		out[i] = s.ip(ip)
	}
	return out
}

// apply returns the cycle's copy of o stamped with at.
func (s shifter) apply(o observation, at time.Time) observation {
	switch {
	case o.iface != nil:
		c := *o.iface
		c.IP, c.At = s.ip(c.IP), at
		return observation{iface: &c}
	case o.gw != nil:
		c := *o.gw
		c.IfaceIPs, c.At = s.ips(c.IfaceIPs), at
		c.Subnets = make([]pkt.Subnet, len(o.gw.Subnets))
		for i, sn := range o.gw.Subnets {
			c.Subnets[i] = pkt.Subnet{Addr: s.ip(sn.Addr), Mask: sn.Mask}
		}
		return observation{gw: &c}
	default:
		c := *o.sn
		c.Subnet.Addr, c.At = s.ip(c.Subnet.Addr), at
		c.GatewayIPs = s.ips(c.GatewayIPs)
		if c.LoAddr != 0 {
			c.LoAddr, c.HiAddr = s.ip(c.LoAddr), s.ip(c.HiAddr)
		}
		return observation{sn: &c}
	}
}

// ingestPlan lays out the run: the fixed-rate phase (phase 0), then the
// sweep steps (phases 1..ingestSteps) at rising rates, replaying the
// captured stream in shifted cycles.
func ingestPlan(stream []observation, seed int64, seconds float64) []planned {
	var plan []planned
	moved := movedSubnets(stream, seed)
	add := func(at time.Duration, phase int) {
		k := len(plan)
		o := stream[k%len(stream)]
		sh := shifter{moved: moved, cycle: k / len(stream)}
		plan = append(plan, planned{due: at, o: sh.apply(o, stampOf(k)), phase: phase})
	}
	fixed := time.Duration(seconds * ingestFixed * float64(time.Second))
	for t := time.Duration(0); t < fixed; t += time.Second / ingestRate {
		add(t, 0)
	}
	step := time.Duration(seconds * (1 - ingestFixed) / ingestSteps * float64(time.Second))
	rate := float64(ingestRate)
	for j := 1; j <= ingestSteps; j++ {
		rate *= ingestStepGain
		base := fixed + time.Duration(j-1)*step
		gap := time.Duration(float64(time.Second) / rate)
		for t := time.Duration(0); t < step; t += gap {
			add(base+t, j)
		}
	}
	return plan
}

// ingestState is what set-up leaves ready: the schedule, a server with
// a subscriber attached, and the pipelined load connection.
type ingestState struct {
	plan []planned
	srv  *jserver.Server
	w    *watcher
	pipe *jclient.Pipeline
	dir  string
}

func (st *ingestState) close(lay *layers) {
	if st.pipe != nil {
		st.pipe.Close()
	}
	if st.w != nil {
		st.w.close(lay)
	}
	if st.srv != nil {
		closeServer(st.srv, lay)
	}
}

func runIngest(p Params) (*Result, error) {
	r := &Result{}
	lay := newLayers()
	tr := newTracer(p.Trace)
	var wc *wireCounts
	if tr != nil {
		tr.stampObs = obsOfStamp
		wc = &wireCounts{}
	}
	reps := 0
	st, err := repeatSetup(r, func() (*ingestState, error) {
		st := &ingestState{dir: filepath.Join(p.DataDir, fmt.Sprintf("server%d", reps))}
		reps++
		stream, err := captureStream(campusSeed(p.Seed, 0))
		if err != nil {
			return st, err
		}
		st.plan = ingestPlan(stream, p.Seed, p.Seconds)
		if st.srv, err = startServer(st.dir, lay); err != nil {
			return st, err
		}
		opts := dialOpts(wc)
		if st.w, err = startWatcher(st.srv.Addr(), tr, opts); err != nil {
			return st, err
		}
		st.pipe, err = jclient.DialPipeline(st.srv.Addr(), opts...)
		return st, err
	}, func(st *ingestState) { st.close(newLayers()) })
	if err != nil {
		return nil, err
	}
	// Only the kept server's numbers count toward the layers.
	*lay = *newLayers()
	lay.wire = wc

	j := st.srv.Journal()
	seq0, stores0 := j.CurSeq(), j.StatsSnapshot().Stores
	// A traced run traces every other block of stores; the untraced
	// blocks are the baseline for the tracing overhead.
	traced := alternate(tr, ingestTraceBlock)
	fixed := 0
	for fixed < len(st.plan) && st.plan[fixed].phase == 0 {
		fixed++
	}
	start := time.Now()
	windows := max(1, int(p.Seconds*ingestFixed))
	cpuDone := make(chan struct{})
	cpu := cpuWindows(start, time.Second, windows, cpuDone)
	outs := runOpenLoop(st.pipe, st.plan[:fixed], 0, start, tr, traced, lay, p.Drop)
	close(cpuDone)
	perWindow := make([]int, windows)
	for _, pl := range st.plan[:fixed] {
		if k := int(pl.due / time.Second); k < windows {
			perWindow[k]++
		}
	}
	spent := <-cpu
	cpuPerOp(r, spent, perWindow[:len(spent)])
	outs = append(outs, runOpenLoop(st.pipe, st.plan[fixed:], fixed, start, tr, traced, lay, p.Drop)...)
	// Drain the subscriber, then check and score.
	if err := st.w.waitFor(j.CurSeq(), 60*time.Second); err != nil {
		r.fail("%v", err)
	}
	reportHeap(r, liveHeap())
	st.w.checkStream(r, j, seq0)
	ix := indexEvents(st.w.snapshotEvents())
	var lags, untraced, tracedAcks []float64
	// The fixed phase is scored in one-second windows.
	acks := make([][]float64, int(p.Seconds*ingestFixed)+1)
	vis := make([][]float64, len(acks))
	stepAcks := make([][]float64, ingestSteps+1)
	stepLag := make([][]float64, ingestSteps+1)
	stepDone := make([]int, ingestSteps+1)
	stepSpan := make([][2]time.Time, ingestSteps+1)
	cost, invisible := 0, 0
	for i, o := range outs {
		r.Attempted++
		if o.err != nil {
			r.Failed++
			// A failed store misses every latency limit.
			stepAcks[o.phase] = append(stepAcks[o.phase], math.Inf(1))
			if o.phase == 0 {
				win := int(o.due.Sub(outs[0].due) / time.Second)
				acks[win] = append(acks[win], math.Inf(1))
			}
			continue
		}
		cost += o.cost
		ack := ms(o.acked.Sub(o.due))
		lag := ms(o.sent.Sub(o.due))
		at, ok := ix.visibleAt(o.kind, o.key, stampOf(i))
		if !ok {
			invisible++
		}
		stepAcks[o.phase] = append(stepAcks[o.phase], ack)
		stepLag[o.phase] = append(stepLag[o.phase], lag)
		stepDone[o.phase]++
		if stepSpan[o.phase][0].IsZero() || o.due.Before(stepSpan[o.phase][0]) {
			stepSpan[o.phase][0] = o.due
		}
		if o.acked.After(stepSpan[o.phase][1]) {
			stepSpan[o.phase][1] = o.acked
		}
		if o.phase != 0 {
			continue
		}
		win := int(o.due.Sub(outs[0].due) / time.Second)
		acks[win] = append(acks[win], ack)
		lags = append(lags, lag)
		if ok {
			vis[win] = append(vis[win], ms(at.Sub(o.due)))
		}
		if traced(i) {
			tracedAcks = append(tracedAcks, ack)
		} else {
			untraced = append(untraced, ack)
		}
		if o.created {
			lay.created++
		}
		if o.kind == journal.KindInterface {
			lay.seen++
		}
	}
	if invisible > 0 {
		r.fail("%d acknowledged stores never reached the subscriber", invisible)
	}
	if got := j.StatsSnapshot().Stores - stores0; got != cost {
		r.fail("journal applied %d observations, %d acknowledged", got, cost)
	}
	latencyMetrics(r, "store_ack", acks)
	latencyMetrics(r, "visible", vis)

	// The sweep: the highest step whose p99 ack meets the limit and whose
	// generator kept pace; report the rate its acknowledgments achieved.
	maxRate := 0.0
	for s := 1; s <= ingestSteps; s++ {
		if len(stepAcks[s]) == 0 || quantile(stepAcks[s], 0.99) > ingestLimitMs || quantile(stepLag[s], 0.99) > ingestLimitMs {
			break
		}
		maxRate = float64(stepDone[s]) / stepSpan[s][1].Sub(stepSpan[s][0]).Seconds()
	}
	r.add(Metric{Name: "ingest_max_rate", Unit: "1/s", Value: maxRate, N: ingestSteps,
		Note: fmt.Sprintf("fixed phase %d/s; steps x%.1f; p99 limit %.0f ms", ingestRate, ingestStepGain, ingestLimitMs)})
	lay.genLagMs = lags

	// Durability: close the server, recover a fresh one from its files,
	// and find every acknowledged store's record there.
	live := [3]int{j.NumInterfaces(), j.NumGateways(), j.NumSubnets()}
	st.pipe.Close()
	st.pipe = nil
	st.w.close(lay)
	st.w = nil
	if p.Trace {
		lay.walOps = len(outs)
		lay.clientOps = len(outs)
		lay.overhead = median(tracedAcks)/median(untraced) - 1
	}
	snap := startWatch()
	if err := st.srv.SaveSnapshot(); err != nil {
		return nil, err
	}
	lay.saveSnapshot.add(snap.seconds())
	if err := closeServer(st.srv, lay); err != nil {
		return nil, err
	}
	st.srv = nil
	rec, err := startServer(st.dir, lay)
	if err != nil {
		return nil, err
	}
	rj := rec.Journal()
	if got := [3]int{rj.NumInterfaces(), rj.NumGateways(), rj.NumSubnets()}; got != live {
		r.fail("recovered %v interface/gateway/subnet records, live journal had %v", got, live)
	}
	lost := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if !hasKey(rj, o.kind, o.key) {
			lost++
		}
	}
	if lost > 0 {
		r.fail("%d acknowledged stores missing after recovery", lost)
	}
	rec.Close()
	if p.Trace {
		return r, lay.finish(r, tr, p)
	}
	return r, nil
}
