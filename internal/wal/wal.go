// Package wal implements a segmented append-only write-ahead log: the
// durability layer underneath the Journal Server's periodic snapshots.
// The paper's server "periodically checkpoints the Journal to disk",
// which loses up to a snapshot interval of discoveries on a crash; the
// WAL closes that window by recording every mutating request before it
// is applied, so a restart replays snapshot + log tail and loses
// nothing that was acknowledged (under the `always` fsync policy).
//
// Records are CRC32C-framed and length-prefixed (see frame.go), carry a
// monotonically increasing log sequence number (LSN), and live in
// segment files that rotate at a configurable size (see segment.go).
// A snapshot is the compaction point: once the journal state covering
// LSN ≤ n is durably on disk, every segment wholly below the rotation
// boundary can be deleted.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fremont/internal/obs"
)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: zero acknowledged records
	// are lost on a crash. The slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background goroutine every
	// Options.Interval: a crash loses at most the unsynced window.
	SyncInterval
	// SyncNever issues no fsyncs at all; durability rides on the OS
	// page cache. Useful for benchmarks and throwaway runs.
	SyncNever
)

// String reports the flag spelling of p.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy converts a flag value into a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configures a Log.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentSize is the rotation threshold in bytes (default 16 MiB).
	// A segment may exceed it by one commit group.
	SegmentSize int64
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// GroupMax bounds how many staged records one commit group may
	// carry (default DefaultGroupMax). Stage first commits a full
	// pending group, which is the log's write backpressure.
	GroupMax int
	// GroupWait is an optional delay the commit leader inserts before
	// draining the pending group, trading latency for larger batches
	// when writers trickle in rather than burst. Default 0: the leader
	// commits whatever accumulated while the previous group was being
	// written, which batches well under genuine concurrency and adds
	// no latency when there is none.
	GroupWait time.Duration
	// Obs receives the log's metrics (wal_appends_total, wal_fsyncs_total,
	// wal_rotations_total, the wal_fsync_seconds histogram, the
	// wal_live_segments gauge). Nil uses the process-wide obs.Default();
	// fremontd passes its server's registry so one scrape covers both
	// layers. Appends are deliberately counted but not timed — the
	// append fast path under SyncNever is a few hundred nanoseconds and
	// a clock read would be measurable; fsyncs are microseconds at best,
	// so their latency histogram is free by comparison.
	Obs *obs.Registry
}

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize
// is zero.
const DefaultSegmentSize = 16 << 20

// DefaultGroupMax is the commit-group record bound when Options.GroupMax
// is zero.
const DefaultGroupMax = 1024

// maxGroupBytes soft-bounds a commit group's buffered bytes: staging
// waits once the pending group holds at least this much, unless the
// group is empty (a single record may legitimately exceed it, up to
// MaxRecord).
const maxGroupBytes = 8 << 20

// Recovery summarizes what Open found on disk.
type Recovery struct {
	Segments        int    // segment files that survived
	Records         int    // verified records across all segments
	LastLSN         uint64 // highest LSN on disk (0 for an empty log)
	Torn            bool   // a torn/corrupt tail was truncated away
	DroppedBytes    int64  // bytes discarded past the valid prefix
	DroppedSegments int    // whole segment files discarded past the valid prefix
}

// Stats is a point-in-time snapshot of a Log's counters.
type Stats struct {
	Appends       int64  // records appended this process
	BytesAppended int64  // frame bytes appended this process
	Fsyncs        int64  // fsync calls issued
	GroupCommits  int64  // commit groups written (1..GroupMax records each)
	Replayed      int64  // records delivered by Replay
	Segments      int    // live segment files (sealed + active)
	LastLSN       uint64 // highest LSN assigned
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")

// Log is a segmented write-ahead log. All methods are safe for
// concurrent use.
//
// Appends go through a group commit: Stage assigns the record's LSN and
// buffers its frame and apply callback under the lock, then Wait elects
// one waiter as the commit leader. The leader drains every staged frame
// in one write (one fsync under SyncAlways) while the lock is released,
// runs the callbacks in LSN order, then wakes the whole group. N
// concurrent appenders therefore share one fsync per group.
type Log struct {
	opt Options
	rec Recovery

	mu       sync.Mutex
	cond     *sync.Cond // commit completed / pending drained / leader done
	f        *os.File   // active segment
	seq      uint64     // active segment sequence number
	size     int64      // active segment size in bytes
	lastLSN  uint64
	dirty    bool     // unsynced appends outstanding
	segments []uint64 // live segment seqs, ascending; last is active
	closed   bool

	// Group-commit state. pending holds staged frames not yet written;
	// spare is the previous group's buffer, recycled to avoid
	// reallocating every commit. committing is true while a leader is
	// writing (and fsyncing) outside mu; writtenLSN is the highest LSN
	// whose frame the active policy considers committed (written, and
	// fsynced under SyncAlways). ioErr is sticky: once a group write or
	// fsync fails, the LSNs of its frames are consumed but not on disk,
	// so continuing would tear a hole in the sequence — the log fails
	// stop and every later Stage/Wait reports the original error.
	// applies holds the pending group's callbacks in stage (LSN) order.
	pending    []byte
	pendingN   int
	applies    []func()
	spare      []byte
	committing bool
	writtenLSN uint64
	ioErr      error

	// Per-log counters behind Stats(). The registry instruments below
	// mirror them (aggregated across logs when several share a registry).
	appends      atomic.Int64
	bytes        atomic.Int64
	fsyncs       atomic.Int64
	groupCommits atomic.Int64
	replayed     atomic.Int64

	// Cached registry instruments; never nil after Open.
	mAppends   *obs.Counter
	mBytes     *obs.Counter
	mFsyncs    *obs.Counter
	mGroups    *obs.Counter
	mRotations *obs.Counter
	mReplayed  *obs.Counter
	mFsyncLat  *obs.Histogram
	mBatchSize *obs.Histogram
	mSegments  *obs.Gauge

	quit chan struct{}
	wg   sync.WaitGroup
}

// Open opens (or creates) the log in opt.Dir, verifying every frame on
// disk. A torn or corrupt tail — a partial final frame, or garbage at
// an arbitrary offset — is truncated away so the log resumes from the
// longest valid prefix; whole segments past a corruption are deleted.
// Use RecoveryInfo to learn what was found and what was dropped.
func Open(opt Options) (*Log, error) {
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = DefaultSegmentSize
	}
	if opt.Interval <= 0 {
		opt.Interval = 100 * time.Millisecond
	}
	if opt.GroupMax <= 0 {
		opt.GroupMax = DefaultGroupMax
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := opt.Obs
	if reg == nil {
		reg = obs.Default()
	}
	l := &Log{
		opt:        opt,
		quit:       make(chan struct{}),
		mAppends:   reg.Counter("wal_appends_total"),
		mBytes:     reg.Counter("wal_append_bytes_total"),
		mFsyncs:    reg.Counter("wal_fsyncs_total"),
		mGroups:    reg.Counter("wal_group_commits_total"),
		mRotations: reg.Counter("wal_rotations_total"),
		mReplayed:  reg.Counter("wal_replayed_total"),
		mFsyncLat:  reg.Histogram("wal_fsync_seconds", nil),
		mBatchSize: reg.Histogram("wal_commit_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		mSegments:  reg.Gauge("wal_live_segments"),
	}
	l.cond = sync.NewCond(&l.mu)

	seqs, err := listSegments(opt.Dir)
	if err != nil {
		return nil, err
	}
	// Walk segments oldest-first; the first verification failure ends
	// the valid prefix. Everything after it (rest of that file, any
	// later files) is dropped so appends resume exactly where replay
	// stops.
	var live []uint64
	for i, seq := range seqs {
		path := filepath.Join(opt.Dir, segName(seq))
		res, err := scanSegment(path)
		if err != nil {
			return nil, err
		}
		if res.validEnd == 0 && res.torn {
			// Header didn't verify: nothing salvageable in this file.
			l.rec.Torn = true
			l.rec.DroppedBytes += res.fileSize
			l.rec.DroppedSegments++
			if err := removeSegment(opt.Dir, seq); err != nil {
				return nil, err
			}
			l.dropTail(seqs[i+1:])
			break
		}
		l.rec.Records += res.records
		l.lastLSN = max(l.lastLSN, res.lastLSN)
		live = append(live, seq)
		if res.torn {
			l.rec.Torn = true
			l.rec.DroppedBytes += res.fileSize - res.validEnd
			if err := os.Truncate(path, res.validEnd); err != nil {
				return nil, err
			}
			l.dropTail(seqs[i+1:])
			break
		}
	}
	l.segments = live
	l.rec.Segments = len(l.segments)
	l.rec.LastLSN = l.lastLSN
	l.writtenLSN = l.lastLSN // everything recovered is on disk

	if len(l.segments) == 0 {
		if err := l.createSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		seq := l.segments[len(l.segments)-1]
		path := filepath.Join(opt.Dir, segName(seq))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		end, err := f.Seek(0, 2)
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.seq, l.size = f, seq, end
	}

	if opt.Policy == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// dropTail deletes whole segment files past a corruption point.
func (l *Log) dropTail(seqs []uint64) {
	for _, seq := range seqs {
		path := filepath.Join(l.opt.Dir, segName(seq))
		if fi, err := os.Stat(path); err == nil {
			l.rec.DroppedBytes += fi.Size()
		}
		l.rec.DroppedSegments++
		os.Remove(path)
	}
}

// RecoveryInfo reports what Open found on disk.
func (l *Log) RecoveryInfo() Recovery { return l.rec }

// Stats returns the log's counters; safe to call at any time.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs, lsn := len(l.segments), l.lastLSN
	l.mu.Unlock()
	return Stats{
		Appends:       l.appends.Load(),
		BytesAppended: l.bytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		GroupCommits:  l.groupCommits.Load(),
		Replayed:      l.replayed.Load(),
		Segments:      segs,
		LastLSN:       lsn,
	}
}

// LastLSN reports the highest LSN assigned so far.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// AdvanceLSN raises the LSN counter to at least min. Recovery calls
// this with the snapshot's LSN so that a log whose segments were all
// compacted away (or lost) never reissues sequence numbers the
// snapshot already covers.
func (l *Log) AdvanceLSN(min uint64) {
	l.mu.Lock()
	if l.lastLSN < min {
		l.lastLSN = min
		if l.writtenLSN < min {
			// Recovery-time call: nothing is staged, so the skipped
			// sequence numbers need no disk coverage.
			l.writtenLSN = min
		}
	}
	l.mu.Unlock()
}

// Ticket is a staged append on its way to disk: LSN is already assigned,
// Wait blocks until the record's commit group is written (and fsynced
// under SyncAlways) and its callbacks have run, or the log has failed.
type Ticket struct {
	l   *Log
	LSN uint64
}

// Append assigns the next LSN, stages one record, and waits for its
// commit group to reach disk — under SyncAlways the record is fsynced
// before Append returns. The returned LSN is the record's position in
// the global mutation order. Equivalent to Stage followed by Wait;
// callers that can overlap other work with the commit (or want many
// records to share one group) use the two halves directly.
func (l *Log) Append(payload []byte) (uint64, error) {
	t, err := l.Stage(payload)
	if err != nil {
		return 0, err
	}
	return t.LSN, t.Wait()
}

// Stage assigns the next LSN and buffers one record into the pending
// commit group; it is NOT durable until Ticket.Wait returns. The commit
// leader runs apply (if given and non-nil) once the record is on disk,
// in LSN order across all groups and before any Wait on the record
// returns nil; a failed group runs none. apply must not call into the
// log. A full pending group is committed by the stager itself unless a
// leader is already running, so staging never depends on a waiter.
func (l *Log) Stage(payload []byte, apply ...func()) (Ticket, error) {
	if len(payload) > MaxRecord {
		return Ticket{}, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed && l.ioErr == nil && l.pendingN > 0 &&
		(l.pendingN >= l.opt.GroupMax || len(l.pending) >= maxGroupBytes) {
		if !l.committing {
			l.commitLocked()
			continue
		}
		l.cond.Wait()
	}
	if l.closed {
		return Ticket{}, ErrClosed
	}
	if l.ioErr != nil {
		return Ticket{}, l.ioErr
	}
	lsn := l.lastLSN + 1
	l.lastLSN = lsn
	before := len(l.pending)
	l.pending = appendFrame(l.pending, lsn, payload)
	l.pendingN++
	l.applies = append(l.applies, apply...)
	n := int64(len(l.pending) - before)
	l.appends.Add(1)
	l.bytes.Add(n)
	l.mAppends.Inc()
	l.mBytes.Add(n)
	return Ticket{l: l, LSN: lsn}, nil
}

// Wait blocks until the staged record is committed per the log's fsync
// policy and its apply callback has run. The first waiter to find no
// commit in flight becomes the group's leader and performs the write
// itself; everyone else sleeps until the leader's broadcast. A ticket whose group failed reports the
// log's sticky I/O error.
func (t Ticket) Wait() error {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.writtenLSN >= t.LSN {
			return nil
		}
		if l.ioErr != nil {
			return l.ioErr
		}
		if !l.committing && l.pendingN > 0 {
			l.commitLocked()
			continue
		}
		l.cond.Wait()
	}
}

// commitLocked runs one group commit as the leader: called with mu held
// and committing false, returns with mu held and committing false again.
// The staged group is swapped out under the lock, written (and fsynced
// under SyncAlways) with the lock released so stagers keep filling the
// next group, then its callbacks run (before committing clears, so no
// later group overtakes them), and it is accounted and broadcast.
func (l *Log) commitLocked() {
	l.committing = true
	if l.opt.GroupWait > 0 {
		// Let trickling writers accumulate into this group. committing
		// is already set, so there is exactly one sleeper.
		l.mu.Unlock()
		time.Sleep(l.opt.GroupWait)
		l.mu.Lock()
	}
	if l.size >= l.opt.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			return
		}
	}
	buf, count, top, applies := l.pending, l.pendingN, l.lastLSN, l.applies
	l.pending = l.spare[:0]
	l.pendingN = 0
	l.spare = nil
	l.applies = nil
	f := l.f
	syncNow := l.opt.Policy == SyncAlways

	l.mu.Unlock()
	_, err := f.Write(buf)
	if err == nil && syncNow {
		start := time.Now()
		if err = f.Sync(); err == nil {
			l.mFsyncLat.ObserveSince(start)
		}
	}
	for _, fn := range applies {
		if err == nil && fn != nil {
			fn()
		}
	}
	l.mu.Lock()

	if cap(buf) <= maxGroupBytes*2 {
		l.spare = buf[:0] // recycle; oversized one-off groups are dropped
	}
	if err != nil {
		l.failLocked(err)
		return
	}
	l.size += int64(len(buf))
	l.dirty = !syncNow
	l.writtenLSN = top
	if syncNow {
		l.fsyncs.Add(1)
		l.mFsyncs.Inc()
	}
	l.groupCommits.Add(1)
	l.mGroups.Inc()
	l.mBatchSize.Observe(float64(count))
	l.committing = false
	l.cond.Broadcast()
}

// failLocked records a commit failure: the log fails stop. Called with
// mu held, committing true (or from a leader's rotate failure).
func (l *Log) failLocked(err error) {
	if l.ioErr == nil {
		l.ioErr = fmt.Errorf("wal: commit failed: %w", err)
	}
	l.committing = false
	l.cond.Broadcast()
}

// Sync forces an fsync of the active segment regardless of policy. It
// covers everything already written; records still staged in the
// pending group are committed by their waiters, not here.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.committing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.ioErr != nil {
		return l.ioErr
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.mFsyncLat.ObserveSince(start)
	l.dirty = false
	l.fsyncs.Add(1)
	l.mFsyncs.Inc()
	return nil
}

// Rotate seals the active segment and starts a new one, returning the
// new segment's sequence number. Every record committed before the call
// lives in a segment strictly below the returned boundary — pass it to
// Compact once those records are covered by a snapshot. (Records still
// staged at the time of the call land in the new segment, above the
// boundary, so they can never be compacted away prematurely.)
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.committing {
		l.cond.Wait()
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.ioErr != nil {
		return 0, l.ioErr
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.seq, nil
}

func (l *Log) rotateLocked() error {
	if l.opt.Policy != SyncNever {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.mRotations.Inc()
	return l.createSegmentLocked(l.seq + 1)
}

// createSegmentLocked creates segment seq and makes it active.
func (l *Log) createSegmentLocked(seq uint64) error {
	path := filepath.Join(l.opt.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegHeader(l.lastLSN)); err != nil {
		f.Close()
		return err
	}
	if l.opt.Policy != SyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		l.fsyncs.Add(1)
		l.mFsyncs.Inc()
		if err := SyncDir(l.opt.Dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.seq, l.size, l.dirty = f, seq, segHeaderSize, false
	l.segments = append(l.segments, seq)
	l.mSegments.Set(int64(len(l.segments)))
	return nil
}

// Compact deletes every sealed segment with sequence number below
// boundary (as returned by Rotate) and reports how many were removed.
// The compaction invariant: callers only pass a boundary whose records
// are all reflected in a durable snapshot, so every record is always in
// the snapshot or a live segment — never lost.
func (l *Log) Compact(boundary uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	var firstErr error
	keep := make([]uint64, 0, len(l.segments))
	for _, seq := range l.segments {
		if firstErr == nil && seq < boundary && seq != l.seq {
			if err := removeSegment(l.opt.Dir, seq); err != nil {
				// Keep the segment in the live list; a later Compact
				// retries it.
				firstErr = err
				keep = append(keep, seq)
				continue
			}
			removed++
			continue
		}
		keep = append(keep, seq)
	}
	l.segments = keep
	l.mSegments.Set(int64(len(l.segments)))
	if removed > 0 && l.opt.Policy != SyncNever {
		if err := SyncDir(l.opt.Dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return removed, firstErr
}

// Close drains and commits any staged records, stops the background
// syncer (if any), flushes and fsyncs the unsynced tail under every
// policy except SyncNever, and closes the active segment. Tickets staged
// before Close are committed durably and their callbacks run; Stage
// after Close reports ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.quit)
	l.cond.Broadcast() // wake backpressured stagers to see closed
	// Drain: wait out any in-flight commit and lead one ourselves for
	// staged frames whose waiters haven't elected a leader yet.
	for l.ioErr == nil && (l.committing || l.pendingN > 0) {
		if !l.committing && l.pendingN > 0 {
			l.commitLocked()
			continue
		}
		l.cond.Wait()
	}
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.opt.Policy != SyncNever && l.ioErr == nil {
		// The unsynced tail (SyncInterval's last window, or SyncNever
		// writes forced by an explicit Sync policy change) must not ride
		// on the OS page cache past Close.
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil && l.ioErr != nil {
		err = l.ioErr
	}
	return err
}

// syncLoop is the background fsyncer for SyncInterval.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked() // best effort; Append surfaces write errors
			}
			l.mu.Unlock()
		case <-l.quit:
			return
		}
	}
}
