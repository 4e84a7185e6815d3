package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fremont/internal/netsim/sim"
)

// The gate couples the deterministic single-threaded simulation to real
// operating-system goroutines — the Journal Server's per-connection
// handlers, jclient callers, the emulytics harness actors — so a genuine
// jserver.Server can run on a simulated listener without being rewritten
// as a sim.Proc.
//
// The model mirrors sim.Proc's handover discipline, extended to
// goroutines the simulator did not spawn and cannot instrument:
//
//   - Virtual time advances only while the external world is quiescent.
//     RunGated executes one event at a time and, between events, waits
//     until every known external goroutine is parked in a simulated
//     operation (a TCP Read/Write/Accept/Dial, or a gated Sleep).
//   - A "runnable token" accounts for each external goroutine that is
//     currently executing. Tokens are granted when a waiter is woken by a
//     simulation event and consumed when the goroutine parks again, so
//     the count is exact across the request/response round trips that
//     decide journal apply order.
//   - Goroutines the gate cannot see being born (the server's
//     per-connection handler, spawned by its own accept loop) inherit a
//     token attached to the object that implies their existence: Accept
//     returns a connection carrying one pending token, consumed by the
//     first operation any goroutine performs on that connection; a
//     listener made outside a tracked goroutine carries one until Accept.
//
// gateMu also serializes ALL simulator state between the event loop and
// external goroutines: RunGated holds it across each event, and every
// simulated operation an external goroutine performs holds it too.
// Parking releases it; waking re-acquires it. sim.Proc processes never
// contend — they only run inside events, while RunGated holds the lock.
type gate struct {
	mu sync.Mutex

	// running counts external goroutines currently executing (holding a
	// runnable token). Virtual time is frozen while running > 0.
	running int

	// gids holds per-goroutine tokens for goroutines registered through
	// Go/Enter (harness actors). Untracked goroutines (server internals)
	// are accounted through per-object token pools instead.
	gids map[uint64]struct{}

	// vers increments on every token transition; the settle loop in
	// RunGated uses it to detect activity between polls.
	vers uint64
}

// tokenPool is a per-object (connection or listener) pool of runnable
// tokens for goroutines the gate cannot identify. A token parked here
// means "one anonymous goroutine attributed to this object is currently
// running and will come back to park on it".
type tokenPool struct {
	n int
}

// gwaiter is one parked external goroutine.
type gwaiter struct {
	ch  chan struct{} // buffered(1): wake never blocks the event loop
	net *Network      // set by armTimeout for the pre-bound timeout handler

	// Token bookkeeping: what the park consumed, so the wake can regrant
	// the same kind.
	src  int // srcNone, srcGid, srcPool
	gid  uint64
	pool *tokenPool

	woken    bool
	timedOut bool
	timer    sim.Timer
}

const (
	srcNone = iota // parked goroutine held no token (pre-simulation setup)
	srcGid         // token from the per-goroutine registry
	srcPool        // token from an object pool (inherited/anonymous)
)

func newGate() *gate {
	return &gate{gids: map[uint64]struct{}{}}
}

// curGID returns the current goroutine's runtime ID, parsed from the
// stack header ("goroutine N ["). Used only for token bookkeeping at
// park/unpark boundaries, never on a per-frame path.
func curGID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// enter registers the current goroutine as runnable. Called with mu held.
func (g *gate) enter(gid uint64) {
	if _, dup := g.gids[gid]; dup {
		return
	}
	g.gids[gid] = struct{}{}
	g.running++
	g.vers++
}

// exit unregisters the current goroutine. Called with mu held.
func (g *gate) exit(gid uint64) {
	if _, ok := g.gids[gid]; !ok {
		return
	}
	delete(g.gids, gid)
	g.running--
	g.vers++
}

// grantPool deposits an anonymous runnable token on pool (e.g. for the
// connection handler the server is about to spawn). Called with mu held.
func (g *gate) grantPool(pool *tokenPool) {
	pool.n++
	g.running++
	g.vers++
}

// releasePool withdraws one anonymous token from pool if present (a
// handler exiting via Close rather than a park). Called with mu held.
func (g *gate) releasePool(pool *tokenPool) {
	if pool.n > 0 {
		pool.n--
		g.running--
		g.vers++
	}
}

// park blocks the current goroutine on w until wake is called. mu must be
// held; it is released while blocked and re-acquired before returning.
// pool is the object the goroutine is blocking on (for anonymous-token
// accounting); it may be nil.
func (g *gate) park(w *gwaiter, pool *tokenPool) {
	if w.ch == nil {
		w.ch = make(chan struct{}, 1)
	}
	gid := curGID()
	switch {
	case g.has(gid):
		delete(g.gids, gid)
		g.running--
		w.src, w.gid = srcGid, gid
	case pool != nil && pool.n > 0:
		pool.n--
		g.running--
		w.src, w.pool = srcPool, pool
	default:
		w.src, w.pool = srcNone, pool
	}
	g.vers++
	g.mu.Unlock()
	<-w.ch
	g.mu.Lock()
}

func (g *gate) has(gid uint64) bool {
	_, ok := g.gids[gid]
	return ok
}

// wake makes a parked waiter runnable again, regranting the token kind
// its park consumed. A goroutine that parked before the gate knew it
// (src == srcNone) is promoted to an anonymous pool token so that from
// now on it is accounted exactly. mu must be held. Safe to call more
// than once; only the first call wakes.
func (g *gate) wake(w *gwaiter) {
	if w.woken {
		return
	}
	w.woken = true
	switch w.src {
	case srcGid:
		g.gids[w.gid] = struct{}{}
	case srcPool:
		w.pool.n++
	default:
		if w.pool != nil {
			w.pool.n++
		}
	}
	g.running++
	g.vers++
	w.timer.Stop()
	w.ch <- struct{}{}
}

// wakeTimeout is the pre-bound timer handler for parks with a deadline.
func gateWakeTimeout(arg any, _ uint64) {
	w := arg.(*gwaiter)
	if w.woken {
		return
	}
	w.timedOut = true
	w.net.gate.wake(w)
}

// armTimeout schedules a virtual-time wake for w after d. mu must be held.
func (n *Network) armTimeout(w *gwaiter, d time.Duration) {
	w.net = n
	w.timer = n.Sched.AfterEventTimer(d, gateWakeTimeout, w, 0)
}

// stallLimit is how long RunGated will wait (in real time) for the
// external world to go quiescent before declaring a deadlock. Generous:
// it only bounds genuine hangs, not the common sub-millisecond handoffs.
const stallLimit = 30 * time.Second

// RunGated advances the simulation for d of virtual time while external
// goroutines (a jserver on a simulated listener, jclient callers on
// simulated dialers) interleave deterministically with events: each event
// runs only once every external goroutine has parked again. This is the
// emulytics-mode run loop; Run remains the fast path for simulations with
// no external participants.
func (n *Network) RunGated(d time.Duration) {
	g := n.gate
	deadline := n.Sched.Now() + d
	for {
		g.mu.Lock()
		n.waitQuiet(g)
		s := n.Sched
		if !s.HasEventBefore(deadline) {
			s.AdvanceTo(deadline)
			g.mu.Unlock()
			break
		}
		s.Step()
		g.mu.Unlock()
	}
	n.syncEngineStats()
}

// waitQuiet blocks (polling, releasing mu between polls) until no
// external goroutine holds a runnable token, then settles: it yields the
// OS scheduler a few times and confirms nothing became runnable, closing
// the tiny windows where a goroutine has been handed work through a
// plain channel but has not yet reached its next simulated operation.
// Called and returns with mu held.
func (n *Network) waitQuiet(g *gate) {
	start := time.Now()
	for {
		for g.running > 0 {
			g.mu.Unlock()
			if time.Since(start) > stallLimit {
				g.mu.Lock()
				panic(fmt.Sprintf("netsim: gated simulation stalled: %d external goroutine(s) runnable for %v (missing park?)", g.running, stallLimit))
			}
			time.Sleep(20 * time.Microsecond)
			g.mu.Lock()
		}
		// Settle: give freshly-signaled goroutines a chance to reach
		// their next gated operation before we declare quiescence.
		v := g.vers
		g.mu.Unlock()
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		g.mu.Lock()
		if g.vers == v && g.running == 0 {
			return
		}
	}
}

// Go runs fn as a gated external goroutine: the simulation will not
// advance virtual time while fn is executing between simulated
// operations. Use it for harness actors (managers, explorer drivers)
// that talk to simulated endpoints; goroutines spawned internally by the
// code under test (the server's handlers) are tracked automatically
// through the operations they perform.
func (n *Network) Go(fn func()) {
	g := n.gate
	ready := make(chan struct{})
	go func() {
		gid := curGID()
		g.mu.Lock()
		g.enter(gid)
		g.mu.Unlock()
		close(ready)
		defer func() {
			g.mu.Lock()
			g.exit(gid)
			g.mu.Unlock()
		}()
		fn()
	}()
	<-ready
}

// GatedSleep parks the calling external goroutine for d of virtual time.
// It must be called from a goroutine interacting with the gated
// simulation (one started via Go, or a connection handler); calling it
// with no RunGated loop driving the clock blocks until one runs.
func (n *Network) GatedSleep(d time.Duration) {
	g := n.gate
	g.mu.Lock()
	w := &gwaiter{}
	n.armTimeout(w, d)
	g.park(w, nil)
	g.mu.Unlock()
}

// GatedNow returns the current virtual wall-clock time, safely callable
// from external goroutines.
func (n *Network) GatedNow() time.Time {
	g := n.gate
	g.mu.Lock()
	t := n.Sched.WallNow()
	g.mu.Unlock()
	return t
}

// Locked runs fn holding the simulation lock, so external goroutines can
// safely touch simulator state (send probe packets, read ARP tables)
// between their blocking operations.
func (n *Network) Locked(fn func()) {
	n.gate.mu.Lock()
	defer n.gate.mu.Unlock()
	fn()
}
