package main

import (
	"time"

	"fremont/internal/jclient"
	"fremont/internal/journal"
	"fremont/internal/netsim/pkt"
)

// ingestEpoch is the verification stamp of the first generated store;
// store k carries ingestEpoch + k ms, so every store's effect on its
// record is identifiable in the subscriber's stream.
var ingestEpoch = time.Date(1993, time.February, 1, 0, 0, 0, 0, time.UTC)

func stampOf(k int) time.Time { return ingestEpoch.Add(time.Duration(k) * time.Millisecond) }

func obsOfStamp(t time.Time) uint64 {
	if t.Before(ingestEpoch) {
		return 0
	}
	return uint64(t.Sub(ingestEpoch)/time.Millisecond) + 1
}

// planned is one store of an open-loop schedule.
type planned struct {
	due   time.Duration // offset from the start of the load
	o     observation   // At already set to stampOf(index)
	phase int           // which rate step it belongs to
}

// outcome is what happened to one planned store.
type outcome struct {
	due, sent, acked time.Time
	kind             journal.RecordKind
	key              uint32 // see keyOf
	id               journal.ID
	created          bool
	err              error
	cost             int
	phase            int
}

// keyOf is the record a store is seen by: its interface, its subnet, or
// for a gateway observation its first member interface (or subnet). A
// gateway record itself is no key: a later observation may merge it into
// another gateway and delete it, while its members always carry the
// store's verification stamp.
func keyOf(o observation) (journal.RecordKind, uint32) {
	switch {
	case o.iface != nil:
		return journal.KindInterface, uint32(o.iface.IP)
	case o.gw != nil && len(o.gw.IfaceIPs) > 0:
		return journal.KindInterface, uint32(o.gw.IfaceIPs[0])
	case o.gw != nil:
		return journal.KindSubnet, uint32(o.gw.Subnets[0].Addr)
	default:
		return journal.KindSubnet, uint32(o.sn.Subnet.Addr)
	}
}

// hasKey reports whether j holds the record a store is seen by.
func hasKey(j *journal.Journal, kind journal.RecordKind, key uint32) bool {
	if kind == journal.KindSubnet {
		_, ok := j.SubnetByAddr(pkt.IP(key))
		return ok
	}
	return len(j.Interfaces(journal.Query{HasIP: true, ByIP: pkt.IP(key)})) > 0
}

// sent is a store on the wire awaiting its response.
type sentStore struct {
	i   int
	res func() (journal.ID, bool, error)
}

// runOpenLoop sends plan on one pipelined connection, each store at its
// due time whatever the server's progress (open loop), and collects the
// responses in order on a second goroutine. A store is timed from when it
// was due; how late the generator sent it is kept too. Store number drop
// (1-based) is silently skipped but reported acknowledged — the
// self-test's lost store. plan[0] is store number first of the run (for
// the stamps, observation IDs and tracing blocks). Only stores for which traced reports true get
// spans and count toward the client-side per-layer times.
func runOpenLoop(pipe *jclient.Pipeline, plan []planned, first int, start time.Time, tr *tracer, traced func(i int) bool, lay *layers, drop int) []outcome {
	out := make([]outcome, len(plan))
	// Far more than the pipeline's window: the generator must never wait
	// on the collector, only on the pipeline itself.
	inflight := make(chan sentStore, 4096)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for s := range inflight {
			w := time.Now()
			id, created, err := s.res()
			now := time.Now()
			if traced(first + s.i) {
				tr.record("jclient.wait", 0, uint64(first+s.i+1), w, now)
				lay.waitTime += now.Sub(w)
			}
			o := &out[s.i]
			o.acked, o.id, o.created, o.err = now, id, created, err
		}
	}()
	for i, pl := range plan {
		due := start.Add(pl.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &out[i]
		o.due, o.phase, o.cost = due, pl.phase, storeCost(pl.o)
		o.kind, o.key = keyOf(pl.o)
		s := time.Now()
		o.sent = s
		if first+i+1 == drop {
			o.acked = s
			continue
		}
		var st sentStore
		st.i = i
		switch {
		case pl.o.iface != nil:
			f := pipe.StoreInterface(*pl.o.iface)
			st.res = f.Result
		case pl.o.gw != nil:
			f := pipe.StoreGateway(*pl.o.gw)
			st.res = idResult(f)
		default:
			f := pipe.StoreSubnet(*pl.o.sn)
			st.res = idResult(f)
		}
		// Put the request on the wire unless the next one is already due
		// (then the burst goes out in one write).
		if i+1 == len(plan) || time.Until(start.Add(plan[i+1].due)) > 0 {
			pipe.Flush()
		}
		if e := time.Now(); traced(first + i) {
			tr.record("jclient.send", 0, uint64(first+i+1), s, e)
			lay.sendTime += e.Sub(s)
		}
		inflight <- st
	}
	close(inflight)
	<-collected
	return out
}

// alternate traces every other block of n items, so traced and untraced
// stores interleave through the run and drift cancels out of the
// overhead comparison. A nil tracer traces nothing.
func alternate(tr *tracer, n int) func(i int) bool {
	return func(i int) bool { return tr != nil && (i/n)%2 == 1 }
}

func idResult(f jclient.IDFuture) func() (journal.ID, bool, error) {
	return func() (journal.ID, bool, error) {
		id, err := f.Result()
		return id, false, err
	}
}
