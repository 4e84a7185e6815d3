// Group-commit tests: concurrent appenders must coalesce into shared
// fsyncs without reordering, losing, or duplicating records, and Close
// must both commit staged tickets and fsync the unsynced tail.
package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitConcurrent hammers Append from 8 goroutines under
// SyncAlways and asserts the result is indistinguishable from a serial
// log — contiguous LSNs, every payload present exactly once — while the
// fsync count shows real batching.
func TestGroupCommitConcurrent(t *testing.T) {
	const writers, perWriter = 8, 50
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncAlways, GroupWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var mu sync.Mutex
	got := make(map[uint64]string, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := fmt.Sprintf("w%d-r%d", w, i)
				lsn, err := l.Append([]byte(p))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if prev, dup := got[lsn]; dup {
					t.Errorf("lsn %d assigned twice: %q and %q", lsn, prev, p)
				}
				got[lsn] = p
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	const total = writers * perWriter
	st := l.Stats()
	if st.Appends != total || st.LastLSN != total {
		t.Fatalf("stats = %+v, want %d appends / last LSN %d", st, total, total)
	}
	if st.GroupCommits < 1 || st.GroupCommits >= total {
		t.Fatalf("%d group commits for %d appends: no batching happened", st.GroupCommits, total)
	}
	// One fsync per group plus one for segment creation; with 8 writers
	// and a 2ms group window batching must at least halve the fsyncs.
	if st.Fsyncs > total/2 {
		t.Fatalf("%d fsyncs for %d concurrent appends: group commit not amortizing", st.Fsyncs, total)
	}

	lsns, payloads := collect(t, l)
	if len(lsns) != total {
		t.Fatalf("replayed %d records, want %d", len(lsns), total)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("replay LSN %d at position %d: order broken", lsn, i)
		}
		if want := got[lsn]; string(payloads[i]) != want {
			t.Fatalf("lsn %d replayed %q, want %q", lsn, payloads[i], want)
		}
	}
}

// TestGroupCommitBackpressure keeps the group bound tiny so stagers
// must block on a full group and be woken by commit completions.
func TestGroupCommitBackpressure(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncNever, GroupMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := l.Append([]byte{byte(w), byte(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if lsns, _ := collect(t, l); len(lsns) != 100 {
		t.Fatalf("replayed %d records, want 100", len(lsns))
	}
}

// TestStageWaitBatches: records staged before anyone waits share one
// commit group — one write, one fsync.
func TestStageWaitBatches(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := l.Stats().Fsyncs // segment-creation fsyncs
	var tickets []Ticket
	for i := 0; i < 3; i++ {
		tk, err := l.Stage([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if tk.LSN != uint64(i+1) {
			t.Fatalf("stage %d assigned LSN %d", i, tk.LSN)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.GroupCommits != 1 {
		t.Fatalf("%d group commits, want 1", st.GroupCommits)
	}
	if st.Fsyncs != base+1 {
		t.Fatalf("%d fsyncs for one group (base %d), want %d", st.Fsyncs, base, base+1)
	}
}

// TestCloseFlushesUnsyncedTail is the SyncInterval durability fix: a
// record appended inside the sync interval must be fsynced by Close, not
// left riding on the OS page cache.
func TestCloseFlushesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	// An hour-long interval guarantees the background syncer never runs
	// during the test: any fsync covering the append comes from Close.
	l, err := Open(Options{Dir: dir, Policy: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Fsyncs
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after := l.Stats().Fsyncs; after <= before {
		t.Fatalf("Close issued no fsync: %d before, %d after", before, after)
	}

	l2, err := Open(Options{Dir: dir, Policy: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if lsns, payloads := collect(t, l2); len(lsns) != 1 || string(payloads[0]) != "tail" {
		t.Fatalf("tail record lost across Close/reopen: %v", lsns)
	}
}

// TestCloseCommitsStagedTickets: a ticket staged but not yet waited on
// is committed durably by Close, and its Wait afterwards succeeds.
func TestCloseCommitsStagedTickets(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := l.Stage([]byte("orphan"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("ticket staged before Close failed: %v", err)
	}
	if _, err := l.Stage([]byte("late")); err != ErrClosed {
		t.Fatalf("stage after close = %v, want ErrClosed", err)
	}

	l2, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if lsns, payloads := collect(t, l2); len(lsns) != 1 || string(payloads[0]) != "orphan" {
		t.Fatalf("staged record lost: %v", lsns)
	}
}

// TestGroupCommitCallbacksInLSNOrder stages from 8 goroutines under
// SyncAlways, some waiting per record and some per burst: every apply
// callback must run exactly once, in strictly increasing LSN order
// across groups, and before its own ticket's Wait returns.
func TestGroupCommitCallbacksInLSNOrder(t *testing.T) {
	const writers, perWriter, burst = 8, 40, 5
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = writers * perWriter
	var runs [total]atomic.Int32
	var mu sync.Mutex
	var order []int // record ids in callback order
	lsnOf := make(map[int]uint64, total)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []Ticket
			var ids []int
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				tk, err := l.Stage([]byte(fmt.Sprint(id)), func() {
					runs[id].Add(1)
					mu.Lock()
					order = append(order, id)
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				mu.Lock()
				lsnOf[id] = tk.LSN
				mu.Unlock()
				held, ids = append(held, tk), append(ids, id)
				// Odd writers wait per record, even writers per burst.
				if w%2 == 1 || len(held) == burst || i == perWriter-1 {
					for k, tk := range held {
						if err := tk.Wait(); err != nil {
							t.Errorf("wait: %v", err)
							return
						}
						if runs[ids[k]].Load() != 1 {
							t.Errorf("record %d: Wait returned before its callback ran", ids[k])
						}
					}
					held, ids = held[:0], ids[:0]
				}
			}
		}(w)
	}
	wg.Wait()

	if len(order) != total {
		t.Fatalf("%d callbacks ran, want %d", len(order), total)
	}
	for id := range runs {
		if n := runs[id].Load(); n != 1 {
			t.Fatalf("record %d: callback ran %d times", id, n)
		}
	}
	for i := 1; i < len(order); i++ {
		if a, b := lsnOf[order[i-1]], lsnOf[order[i]]; a >= b {
			t.Fatalf("callback for LSN %d ran after LSN %d", b, a)
		}
	}
}

// TestGroupCommitCloseRunsCallbacks: tickets staged but never waited on
// are committed by Close, which runs their callbacks in LSN order.
func TestGroupCommitCloseRunsCallbacks(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var ran []int
	var tickets []Ticket
	for i := 0; i < 3; i++ {
		tk, err := l.Stage([]byte{byte(i)}, func() { ran = append(ran, i) })
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if len(ran) != 0 {
		t.Fatalf("callbacks ran before commit: %v", ran)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[0 1 2]" {
		t.Fatalf("Close ran callbacks %v, want [0 1 2]", ran)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCommitStagerLeadsFullGroup: a lone stager that fills the
// group with no waiter around must commit the group itself rather than
// wait forever.
func TestGroupCommitStagerLeadsFullGroup(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncNever, GroupMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	applied := 0
	for i := 0; i < 7; i++ {
		if _, err := l.Stage([]byte{byte(i)}, func() { applied++ }); err != nil {
			t.Fatal(err)
		}
	}
	// Three full groups were committed by the stagers; the seventh
	// record is still pending.
	if st := l.Stats(); st.GroupCommits != 3 || applied != 6 {
		t.Fatalf("%d group commits / %d applied after 7 stages with GroupMax 2, want 3 / 6",
			st.GroupCommits, applied)
	}
}
