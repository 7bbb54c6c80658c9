package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy controls when the WAL backend calls fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged event survives
	// both a process crash and a machine crash. Slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval writes every append to the kernel immediately (so a
	// process crash loses nothing) and fsyncs on a background interval, so a
	// machine crash loses at most one interval of events.
	SyncInterval
	// SyncNone never fsyncs explicitly; the kernel flushes at its leisure.
	// A process crash still loses nothing — appends are unbuffered writes —
	// but a machine crash may lose recently acknowledged events.
	SyncNone
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the flag spellings "always", "interval" and "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or none)", s)
	}
}

// WALConfig configures a WAL store.
type WALConfig struct {
	// Dir is the journal directory, created if absent. Required.
	Dir string
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the background fsync cadence under SyncInterval;
	// 0 means DefaultSyncInterval.
	SyncInterval time.Duration
	// CommitWindow stretches group commit: the flush leader waits this long
	// before writing, so more concurrent appenders join the batch and share
	// its write (and, under SyncAlways, its fsync/msync). 0 — the default —
	// means flush immediately: coalescing then happens only to the extent
	// appends actually queue up behind an in-flight flush. Every append's
	// latency grows by up to the window, so keep it at or below the disk's
	// sync latency; it buys nothing under SyncNone.
	CommitWindow time.Duration
}

// DefaultSyncInterval is the background fsync cadence when WALConfig leaves
// SyncInterval zero.
const DefaultSyncInterval = 100 * time.Millisecond

// File layout inside WALConfig.Dir. Each snapshot starts a new generation
// g: "snap-<g>.log" holds the full-state baseline and "wal-<g>.log" the
// events appended since. Snapshots are two-phase: rotation opens wal-<g>
// first (appends continue there immediately), then the baseline snap-<g> is
// written to a ".tmp" file and atomically renamed — so a visible snapshot is
// always complete, and a crash (or commit failure) between the two phases
// leaves a multi-segment chain: the previous snapshot plus every newer
// wal segment, which recovery replays in generation order. Generations
// older than the newest snapshot and leftover temp files are removed on
// open.
const (
	snapPrefix = "snap-"
	walPrefix  = "wal-"
	segSuffix  = ".log"
	tmpSuffix  = ".tmp"
)

func segName(prefix string, gen uint64) string {
	return fmt.Sprintf("%s%016d%s", prefix, gen, segSuffix)
}

// parseSeg extracts the generation from a segment name with the given
// prefix, reporting whether the name matched.
func parseSeg(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), segSuffix), 10, 64)
	return gen, err == nil
}

// WAL is the durable SessionStore: an append-only journal of CRC-checked,
// length-prefixed records with snapshot compaction, mmap-backed appends and
// group commit.
//
// Durability model: once Append returns, the event's bytes are in the
// kernel (memcpy into a MAP_SHARED mapping on Linux, an unbuffered write()
// elsewhere — the two are equivalent: dirty page cache survives a process
// crash either way) and the event survives a process crash regardless of
// sync policy; the policy only decides how much a machine (power) crash
// can lose. Recovery tolerates a torn final record (truncating the tail)
// and all-zero mmap chunk padding, but refuses corrupt snapshots: a
// snapshot is rename-atomic, so damage there means disk trouble an
// operator must see.
//
// Group commit: whenever appends must share a durability round-trip — the
// msync barrier of SyncAlways in mmap mode, every write in write() mode —
// concurrent callers encode into a shared pending batch and the flush
// leader retires it with ONE write and at most ONE fsync/msync, releasing
// every waiter only after the batch is durable. The journal-before-response
// invariant therefore holds per event while the durability cost is
// amortized across the batch; events still hit the disk in arrival order,
// and a torn tail still truncates at a record boundary.
type WAL struct {
	dir    string
	sync   SyncPolicy
	window time.Duration

	mu          sync.Mutex
	idle        *sync.Cond // signaled when flushing drops to false
	f           *os.File   // active journal segment
	m           mmapRegion // active segment's mapping; inactive in write() mode
	noMmap      bool       // platform, test or runtime fallback: journal via write()
	gen         uint64     // active journal segment generation
	snapGen     uint64     // latest published snapshot generation; 0 = none
	segments    int        // live journal segments (gen chain since snapGen)
	snapPending bool       // a rotation is between Rotate and Commit/Abort
	closed      bool
	broken      bool // journal offset unknown after a failed rollback; all writes refused
	walBytes    uint64
	recovered   []Event

	// Group-commit state, guarded by mu. pending is the batch the NEXT
	// flush will write; flushing marks an active leader (which writes
	// outside mu) or the interval flusher's msync; paused asks the leader
	// to yield so Rotate can swap the segment file. freeBatches recycles
	// batch structs (and their encode buffers), so the steady-state append
	// path allocates nothing.
	// Invariant: pending != nil implies a leader is active or about to be
	// restarted (by Rotate after a pause).
	pending     *walBatch
	flushing    bool
	paused      bool
	freeBatches []*walBatch

	flushStop chan struct{}
	flushDone chan struct{}

	// inst receives sampled timing observations (see SetInstrumenter);
	// instOn gates the hot path's clock reads without taking mu, and
	// instTick drives the 1-in-N append sampling. openDur remembers how
	// long open()'s recovery scan took so a later SetInstrumenter can
	// replay it.
	inst     Instrumenter
	instOn   atomic.Bool
	instTick atomic.Uint64
	openDur  time.Duration

	// Counters surfaced by Health; guarded by mu.
	appends        uint64
	appendedBytes  uint64
	flushes        uint64
	syncs          uint64
	failures       uint64
	lastErr        string
	snapshots      uint64
	snapshotEvents uint64
	truncatedTail  bool
	droppedBytes   uint64
}

var _ SessionStore = (*WAL)(nil)

// walBatch is one group-commit unit: the already-encoded records of every
// caller that joined, flushed with one write. Everything is guarded by the
// WAL's mu: joiners bump refs and wait (spin-then-park on the batch's own
// condvar); the leader sets done+err and broadcasts; the last member to
// observe the result recycles the batch.
type walBatch struct {
	buf     []byte
	count   int  // events in the batch
	counted int  // events already accounted in w.appends (mmap sync tickets)
	refs    int  // callers that have yet to observe the result
	parked  bool // a waiter gave up spinning; the leader must broadcast
	// done is atomic so spinning waiters poll it without bouncing the
	// store mutex; err is published before done and read only after.
	done    atomic.Bool
	err     error
	flushed sync.Cond // on the WAL's mu; per-batch so a flush wakes only its own waiters
}

// The journal holds every client seed, pmw's private histogram and tenant
// names, so only its owner may read it. A directory that already exists
// keeps its mode.
const (
	walDirMode  = 0o700
	walFileMode = 0o600
)

// NewWAL opens (or initializes) the journal directory, replays the latest
// snapshot plus journal into memory for Recover, truncates any torn tail so
// new appends start from a clean record boundary, and removes stale
// generations and temp files.
func NewWAL(cfg WALConfig) (*WAL, error) {
	return newWAL(cfg, mmapSupported)
}

// newWAL is NewWAL with the journaling path chosen by the caller: mmap
// false selects write(), the path every non-Linux build runs, so tests
// cover it on Linux too.
func newWAL(cfg WALConfig, mmap bool) (*WAL, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: WAL requires a directory")
	}
	if err := os.MkdirAll(cfg.Dir, walDirMode); err != nil {
		return nil, fmt.Errorf("store: creating WAL dir: %w", err)
	}
	if cfg.CommitWindow < 0 {
		return nil, fmt.Errorf("store: negative commit window %v", cfg.CommitWindow)
	}
	w := &WAL{dir: cfg.Dir, sync: cfg.Sync, window: cfg.CommitWindow, noMmap: !mmap}
	w.idle = sync.NewCond(&w.mu)
	openStart := time.Now()
	if err := w.open(); err != nil {
		return nil, err
	}
	w.openDur = time.Since(openStart)
	if w.sync == SyncInterval {
		interval := cfg.SyncInterval
		if interval <= 0 {
			interval = DefaultSyncInterval
		}
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher(interval)
	}
	return w, nil
}

// open scans the directory, picks the newest complete snapshot as the
// baseline, replays it plus every newer journal segment in generation
// order, and opens the newest segment for appending.
//
// More than one journal segment is the expected signature of a crash (or a
// persistent write failure) between a two-phase snapshot's rotation and its
// commit: wal-<g+1> exists but snap-<g+1> does not, so the previous
// generation's snapshot stays authoritative and both segments replay after
// it. Nothing acknowledged is lost in that window.
func (w *WAL) open() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("store: reading WAL dir: %w", err)
	}
	var snaps, wals []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A temp file is an interrupted snapshot baseline write; the
			// previous generation is still authoritative.
			_ = os.Remove(filepath.Join(w.dir, name))
			continue
		}
		if gen, ok := parseSeg(name, snapPrefix); ok {
			snaps = append(snaps, gen)
		}
		if gen, ok := parseSeg(name, walPrefix); ok {
			wals = append(wals, gen)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	// The baseline is the newest snapshot; its generation and every newer
	// journal segment replay. With no snapshot yet the chain starts at the
	// oldest journal segment (generation 1 on a fresh directory).
	if len(snaps) > 0 {
		w.snapGen = snaps[len(snaps)-1]
		snapPath := filepath.Join(w.dir, segName(snapPrefix, w.snapGen))
		raw, err := os.ReadFile(snapPath)
		if err != nil {
			return fmt.Errorf("store: reading snapshot: %w", err)
		}
		events, _, err := decodeAll(raw)
		if err != nil {
			// Snapshots are written whole and rename-atomic: damage here is
			// disk corruption, and silently dropping sessions would forget
			// spent privacy budget. Refuse to start.
			return fmt.Errorf("store: snapshot %s is corrupt: %w", snapPath, err)
		}
		w.recovered = events
	}

	// Collect the replay chain: every journal segment at or after the
	// baseline, ascending. Generation gaps mean a segment of acknowledged
	// events was deleted out from under us — replaying across the hole would
	// silently under-count spent budget, so refuse.
	var chain []uint64
	for _, gen := range wals {
		if len(snaps) == 0 || gen >= w.snapGen {
			chain = append(chain, gen)
		}
	}
	switch {
	case len(chain) == 0:
		w.gen = w.snapGen
		if w.gen == 0 {
			w.gen = 1
		}
		chain = []uint64{w.gen}
	default:
		if w.snapGen > 0 && chain[0] != w.snapGen {
			return fmt.Errorf("store: journal segment %d missing (oldest present is %d)", w.snapGen, chain[0])
		}
		for i := 1; i < len(chain); i++ {
			if chain[i] != chain[i-1]+1 {
				return fmt.Errorf("store: journal segments %d..%d missing between %s and %s",
					chain[i-1]+1, chain[i]-1, segName(walPrefix, chain[i-1]), segName(walPrefix, chain[i]))
			}
		}
		w.gen = chain[len(chain)-1]
	}
	w.segments = len(chain)

	for i, gen := range chain {
		walPath := filepath.Join(w.dir, segName(walPrefix, gen))
		raw, err := os.ReadFile(walPath)
		if err != nil {
			if os.IsNotExist(err) && len(chain) == 1 && w.snapGen == 0 {
				break // fresh directory: the segment is created below
			}
			// A snapshot's journal segment is created (and its directory
			// entry synced) BEFORE the snapshot can exist, so a missing
			// wal-<snapGen> means acknowledged post-snapshot events are
			// gone. Refuse, like any other gap.
			return fmt.Errorf("store: reading journal: %w", err)
		}
		events, valid, derr := decodeAll(raw)
		w.recovered = append(w.recovered, events...)
		if gen == w.gen {
			w.walBytes = uint64(valid)
		}
		if derr != nil {
			switch {
			case allZero(raw[valid:]):
				// An all-zero tail is mmap chunk padding — the signature of
				// a crash (or an interrupted rotation) before the segment
				// was sealed and trimmed, in ANY segment of the chain. No
				// record can begin with eight zero bytes, so the valid
				// prefix is complete; trim the padding so a write()-mode
				// reopen cannot append after it.
				if err := os.Truncate(walPath, int64(valid)); err != nil {
					return fmt.Errorf("store: trimming journal padding: %w", err)
				}
			case i != len(chain)-1:
				// A torn or corrupt tail is only benign in the FINAL segment
				// (crash mid-append). In an earlier segment the events after
				// the damage are gone while later segments still replay, so
				// acknowledged budget would silently vanish mid-stream.
				return fmt.Errorf("store: journal segment %s is corrupt but newer segments exist: %w", walPath, derr)
			default:
				// Torn tail (crash mid-append) or trailing corruption: keep
				// the valid prefix, truncate the rest so appends resume on a
				// record boundary, and surface the drop in Health.
				w.truncatedTail = true
				w.droppedBytes = uint64(len(raw) - valid)
				if err := os.Truncate(walPath, int64(valid)); err != nil {
					return fmt.Errorf("store: truncating torn journal tail: %w", err)
				}
			}
		}
	}

	f, m, err := w.openSegment(w.gen, int64(w.walBytes), false)
	if err != nil {
		return err
	}
	w.f, w.m = f, m

	// Drop generations older than the baseline now that the chain is decided.
	for _, gen := range snaps {
		if gen != w.snapGen {
			_ = os.Remove(filepath.Join(w.dir, segName(snapPrefix, gen)))
		}
	}
	for _, gen := range wals {
		if w.snapGen > 0 && gen < w.snapGen {
			_ = os.Remove(filepath.Join(w.dir, segName(walPrefix, gen)))
		}
	}
	return nil
}

// allZero reports whether b contains only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// openSegment opens (creating if needed) journal segment gen for appending
// at offset walBytes and, where supported, maps it. A mapping failure is
// not fatal: the store falls back to write() journaling, whose guarantees
// are identical. fresh truncates an existing file first (rotation reuses
// nothing).
func (w *WAL) openSegment(gen uint64, walBytes int64, fresh bool) (*os.File, mmapRegion, error) {
	path := filepath.Join(w.dir, segName(walPrefix, gen))
	truncFlag := 0
	if fresh {
		truncFlag = os.O_TRUNC
	}
	if !w.noMmap {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|truncFlag, walFileMode)
		if err != nil {
			return nil, mmapRegion{}, fmt.Errorf("store: opening journal: %w", err)
		}
		m, merr := mapSegment(f, walBytes)
		if merr == nil {
			return f, m, nil
		}
		// Filesystem without fallocate/mmap support: remember and fall
		// back for the store's lifetime.
		_ = f.Close()
		w.noMmap = true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|truncFlag, walFileMode)
	if err != nil {
		return nil, mmapRegion{}, fmt.Errorf("store: opening journal: %w", err)
	}
	return f, mmapRegion{}, nil
}

// flusher syncs the active segment on the configured interval.
func (w *WAL) flusher(interval time.Duration) {
	defer close(w.flushDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-ticker.C:
			w.intervalSync()
		}
	}
}

// intervalSync is one flusher tick. In mmap mode the msync runs outside
// w.mu, holding the flushing slot as the SyncAlways leader does: appends
// keep landing in the mapping meanwhile, and the next tick covers them,
// so a power crash still loses at most one interval. Mapping growth,
// Rotate and Close wait for the slot (through paused and idle) before
// they touch the mapping. In write() mode, and in mmap mode should a
// leader hold the slot (only SyncAlways runs one there), the sync stays
// under w.mu: the write() leader keeps the slot for as long as appends
// queue, so waiting for it would be a new stall.
func (w *WAL) intervalSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	syncStart := time.Now()
	var err error
	if w.m.active() && !w.flushing {
		m := w.m
		w.flushing = true
		w.mu.Unlock()
		err = m.sync()
		w.mu.Lock()
		w.flushing = false
		w.idle.Broadcast()
	} else {
		err = w.syncSegmentLocked()
	}
	if err != nil {
		w.fail(err)
		return
	}
	w.syncs++
	if w.inst != nil {
		// Events 0: an interval sync flushes whatever bytes are
		// buffered, not a counted batch.
		w.inst.FlushObserved(Flush{Sync: time.Since(syncStart)})
	}
}

// syncSegmentLocked makes the active segment's appended bytes durable:
// msync in mmap mode, fsync in write() mode. Callers hold w.mu.
func (w *WAL) syncSegmentLocked() error {
	if w.m.active() {
		return w.m.sync()
	}
	return w.f.Sync()
}

// fail records an operational error for Health; callers hold w.mu.
func (w *WAL) fail(err error) {
	w.failures++
	w.lastErr = err.Error()
}

// SetInstrumenter implements Instrumented. It must be called before the
// WAL is used concurrently (the server attaches telemetry while opening
// the manager). The recovery measurement taken at open is replayed onto
// the new instrumenter so the attach order does not lose it.
func (w *WAL) SetInstrumenter(i Instrumenter) {
	w.mu.Lock()
	w.inst = i
	w.instOn.Store(i != nil)
	dur, events := w.openDur, len(w.recovered)
	w.mu.Unlock()
	if i != nil {
		i.RecoveryObserved(dur, events)
	}
}

// appendSamplePeriod is the append-latency sampling rate: one append in
// this many reads the clock and reports a weighted observation. Power of
// two so the tick check is a mask.
const appendSamplePeriod = 8

// sampleStart decides whether this append is one of the 1-in-N sampled
// observations, reading the clock only then — steady-state
// instrumentation cost is two uncontended atomics per append.
func (w *WAL) sampleStart() (time.Time, bool) {
	if !w.instOn.Load() || w.instTick.Add(1)&(appendSamplePeriod-1) != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// Append implements SessionStore; doAppend does the work, this wrapper
// adds the sampled caller-observed latency (enqueue through durability
// acknowledgement, group-commit wait included).
func (w *WAL) Append(ev Event) error {
	start, sampled := w.sampleStart()
	err := w.doAppend(ev)
	if sampled && err == nil {
		w.inst.AppendSampled(time.Since(start), appendSamplePeriod)
	}
	return err
}

// AppendBatch implements BatchAppender; see Append for the sampling
// wrapper.
func (w *WAL) AppendBatch(evs []Event) error {
	start, sampled := w.sampleStart()
	err := w.doAppendBatch(evs)
	if sampled && err == nil {
		w.inst.AppendSampled(time.Since(start), appendSamplePeriod)
	}
	return err
}

// doAppend journals one event. In mmap mode the record is encoded
// straight into the mapped segment — the memcpy hands the bytes to the
// kernel, which is exactly the durability an unbuffered write() gave — and
// only SyncAlways then waits on the shared msync barrier. In write() mode
// the record is encoded into the shared pending batch, and the caller
// either becomes the flush leader or waits until a leader has made the
// batch durable.
func (w *WAL) doAppend(ev Event) error {
	w.mu.Lock()
	if err := w.writableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.m.active() {
		need := recordSize(ev)
		dst, err := w.reserveLocked(need)
		if err != nil {
			w.fail(err)
			w.mu.Unlock()
			return err
		}
		if _, err := appendRecord(dst, ev); err != nil {
			w.fail(err)
			w.mu.Unlock()
			return err
		}
		return w.mmapCommitLocked(need, 1) // unlocks
	}
	b := w.pendingLocked()
	buf, err := appendRecord(b.buf, ev)
	if err != nil {
		w.fail(err)
		w.retireIfEmptyLocked(b)
		w.mu.Unlock()
		return err
	}
	b.buf = buf
	b.count++
	return w.commitLocked(b) // unlocks
}

// doAppendBatch journals evs as one atomic batch record (all-or-nothing
// on recovery), flushed with one write through the same group-commit path
// as doAppend.
func (w *WAL) doAppendBatch(evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	if len(evs) == 1 {
		return w.doAppend(evs[0])
	}
	w.mu.Lock()
	if err := w.writableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.m.active() {
		need := batchRecordSize(evs)
		dst, err := w.reserveLocked(need)
		if err != nil {
			w.fail(err)
			w.mu.Unlock()
			return err
		}
		if _, err := appendBatchRecord(dst, evs); err != nil {
			w.fail(err)
			w.mu.Unlock()
			return err
		}
		return w.mmapCommitLocked(need, len(evs)) // unlocks
	}
	b := w.pendingLocked()
	buf, err := appendBatchRecord(b.buf, evs)
	if err != nil {
		w.fail(err)
		w.retireIfEmptyLocked(b)
		w.mu.Unlock()
		return err
	}
	b.buf = buf
	b.count += len(evs)
	return w.commitLocked(b) // unlocks
}

// reserveLocked returns the next need bytes of the mapped segment as an
// empty slice with exactly that capacity, so the caller encodes the record
// in place (append fills the window, never reallocates). walBytes is NOT
// advanced — a failed encode leaves nothing behind. Grows the mapping by
// whole chunks when the window does not fit. Callers hold w.mu.
func (w *WAL) reserveLocked(need int) ([]byte, error) {
	for {
		// Recomputed every iteration: waiting below releases w.mu, and
		// another appender may have advanced walBytes (or grown the
		// mapping) in the meantime — encoding at a stale offset would
		// overwrite its record.
		off := int(w.walBytes)
		if off+need <= len(w.m.buf) {
			return w.m.buf[off : off : off+need], nil
		}
		if err := w.writableLocked(); err != nil {
			w.restartLeaderLocked()
			return nil, err
		}
		if w.flushing {
			// Growth swaps the mapping, and an in-flight msync (the
			// SyncAlways leader's or the interval flusher's, both outside
			// w.mu) must not touch a stale one: park it like Rotate does.
			w.paused = true
			w.idle.Wait()
			w.paused = false
			continue
		}
		if err := w.m.unmap(); err != nil {
			w.broken = true
			w.restartLeaderLocked()
			return nil, err
		}
		m, err := mapSegment(w.f, int64(off+need))
		if err != nil {
			// Can't map further (disk full, filesystem limit). Fall back
			// to write() journaling so the store stays usable: trim the
			// chunk padding first — an O_APPEND reopen must continue at
			// the last record boundary, not after the zeros.
			if terr := w.f.Truncate(int64(off)); terr != nil {
				w.broken = true
				w.fail(terr)
			} else if nf, oerr := os.OpenFile(filepath.Join(w.dir, segName(walPrefix, w.gen)), os.O_WRONLY|os.O_APPEND, walFileMode); oerr != nil {
				w.broken = true
				w.fail(oerr)
			} else {
				_ = w.f.Close()
				w.f = nf
				w.noMmap = true
			}
			w.restartLeaderLocked()
			return nil, err
		}
		w.m = m
	}
}

// mmapCommitLocked publishes an in-place encoded record of need bytes
// holding count events: the memcpy already handed the bytes to the kernel,
// so only SyncAlways has anything to wait for — the shared msync barrier.
// Callers hold w.mu; it is released on return.
func (w *WAL) mmapCommitLocked(need, count int) error {
	w.walBytes += uint64(need)
	w.appends += uint64(count)
	w.appendedBytes += uint64(need)
	if w.sync != SyncAlways {
		w.mu.Unlock()
		return nil
	}
	b := w.pendingLocked()
	b.count += count
	b.counted += count       // already in w.appends; the leader must not re-count
	return w.commitLocked(b) // unlocks
}

// restartLeaderLocked re-arms a flush leader for batches a paused leader
// left pending, when the path that paused it cannot (or may not) flush
// them itself — without this their waiters would stay parked until some
// unrelated later append. Callers hold w.mu.
func (w *WAL) restartLeaderLocked() {
	if w.pending != nil && !w.flushing && !w.closed {
		w.flushing = true
		go func() {
			w.mu.Lock()
			w.lead()
			w.mu.Unlock()
		}()
	}
}

// writableLocked is the shared append guard; callers hold w.mu.
func (w *WAL) writableLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.broken {
		return fmt.Errorf("store: journal in failed state: %s", w.lastErr)
	}
	return nil
}

// pendingLocked returns the batch currently accepting events, creating (or
// recycling) it if needed. Callers hold w.mu.
func (w *WAL) pendingLocked() *walBatch {
	if w.pending == nil {
		var b *walBatch
		if n := len(w.freeBatches); n > 0 {
			b = w.freeBatches[n-1]
			w.freeBatches = w.freeBatches[:n-1]
		} else {
			b = new(walBatch)
			b.flushed.L = &w.mu
		}
		w.pending = b
	}
	return w.pending
}

// retireIfEmptyLocked drops a batch this caller created but failed to put
// anything into, so no empty batch lingers for a leader to chase. Callers
// hold w.mu.
func (w *WAL) retireIfEmptyLocked(b *walBatch) {
	if b.count == 0 && b.refs == 0 && w.pending == b {
		w.pending = nil
		w.recycleLocked(b)
	}
}

// recycleLocked resets a fully-observed batch for reuse. Callers hold w.mu.
func (w *WAL) recycleLocked(b *walBatch) {
	if len(w.freeBatches) < 4 {
		b.buf = b.buf[:0]
		b.count, b.counted, b.refs, b.parked, b.err = 0, 0, 0, false, nil
		b.done.Store(false)
		w.freeBatches = append(w.freeBatches, b)
	}
}

// commitLocked completes an enqueue: the caller's events are already
// encoded into batch b. If no leader is active the caller becomes it and
// flushes until the queue drains; otherwise it waits until a leader has
// flushed b. Either way the caller returns b's outcome; the last member
// out recycles the batch. Callers hold w.mu; it is released on return.
func (w *WAL) commitLocked(b *walBatch) error {
	b.refs++
	if !w.flushing {
		w.flushing = true
		w.lead() // releases and re-acquires mu; b is flushed on return
	}
	// Spin-then-park: on a busy machine the flush completes within a few
	// scheduler passes, and a cooperative yield is several times cheaper
	// than a full park + wake through the condvar. The spin polls the
	// atomic done flag without touching the store mutex; parking — with
	// the mutex held and the flag re-checked under it — only happens when
	// the flush is genuinely slow (an fsync under SyncAlways, a congested
	// disk) so waiters stop burning cycles.
	if !b.done.Load() {
		w.mu.Unlock()
		for spins := 0; spins < 4; spins++ {
			runtime.Gosched()
			if b.done.Load() {
				break
			}
		}
		w.mu.Lock()
		for !b.done.Load() {
			b.parked = true
			b.flushed.Wait()
		}
	}
	err := b.err
	b.refs--
	if b.refs == 0 {
		w.recycleLocked(b)
	}
	w.mu.Unlock()
	return err
}

// lead is the group-commit flush loop: it repeatedly takes the pending
// batch, writes it OUTSIDE w.mu (appends keep enqueueing into the next
// batch meanwhile), applies the sync policy, and releases the batch's
// waiting callers. It runs until the queue is empty or Rotate asks it to
// yield (paused). Called with w.mu held and flushing just set; w.mu is
// held again on return.
func (w *WAL) lead() {
	for {
		var gatherDur time.Duration
		if w.pending != nil {
			// Gather phase: give concurrent appenders a chance to join the
			// batch before it is sealed. With a commit window the leader
			// sleeps it out; without one it still yields the processor
			// once — on a saturated machine the runnable request
			// goroutines run, reach Append, enqueue and wait, so the batch
			// fills for the cost of one scheduler pass. A fast write
			// syscall never releases the P, so without this yield a
			// single-core server would degenerate to one write per event.
			w.mu.Unlock()
			gatherStart := time.Now()
			if w.window > 0 {
				time.Sleep(w.window)
			} else {
				runtime.Gosched()
			}
			gatherDur = time.Since(gatherStart)
			w.mu.Lock()
		}
		cur := w.pending
		if cur == nil || (w.paused && !w.closed) {
			// Queue drained — or Rotate is waiting for the file to be
			// quiescent and will restart a leader for anything still
			// pending. (When the store is closing, Close drains instead.)
			w.flushing = false
			w.idle.Broadcast()
			return
		}
		w.pending = nil
		if w.broken {
			cur.err = fmt.Errorf("store: journal in failed state: %s", w.lastErr)
			w.releaseLocked(cur)
			continue
		}
		if w.m.active() {
			// mmap mode: every event in this batch is already in the
			// mapping; the flush is purely the SyncAlways msync barrier.
			m := w.m
			w.mu.Unlock()
			syncStart := time.Now()
			serr := m.sync()
			syncDur := time.Since(syncStart)
			w.mu.Lock()
			if serr != nil {
				w.fail(serr)
				cur.err = fmt.Errorf("store: msync journal: %w", serr)
			} else {
				w.flushes++
				w.syncs++
				if w.inst != nil {
					w.inst.FlushObserved(Flush{Events: cur.count, Gather: gatherDur, Sync: syncDur})
				}
			}
			w.releaseLocked(cur)
			continue
		}
		f := w.f
		off := w.walBytes
		w.mu.Unlock()

		writeStart := time.Now()
		_, werr := f.Write(cur.buf)
		writeDur := time.Since(writeStart)
		var serr error
		var syncDur time.Duration
		if werr == nil && w.sync == SyncAlways {
			syncStart := time.Now()
			serr = f.Sync()
			syncDur = time.Since(syncStart)
		}

		w.mu.Lock()
		switch {
		case werr != nil:
			w.fail(werr)
			// Same rollback contract as before group commit: junk past the
			// last record boundary must not survive in front of later
			// appends.
			if terr := f.Truncate(int64(off)); terr != nil {
				w.broken = true
				w.fail(terr)
			}
			cur.err = fmt.Errorf("store: appending record: %w", werr)
		default:
			// counted events (mmap sync tickets that joined before a
			// write()-mode fallback) are already in w.appends.
			w.appends += uint64(cur.count - cur.counted)
			w.appendedBytes += uint64(len(cur.buf))
			w.walBytes += uint64(len(cur.buf))
			w.flushes++
			if w.inst != nil {
				w.inst.FlushObserved(Flush{Events: cur.count, Gather: gatherDur, Write: writeDur, Sync: syncDur})
			}
			if serr != nil {
				// The bytes are down (a process crash keeps them) but the
				// SyncAlways promise is broken; report it to every caller.
				w.fail(serr)
				cur.err = fmt.Errorf("store: syncing journal: %w", serr)
			} else if w.sync == SyncAlways {
				w.syncs++
			}
		}
		w.releaseLocked(cur)
	}
}

// releaseLocked marks a batch complete and wakes any waiter that gave up
// spinning and parked on the batch's condvar. Callers hold w.mu and have
// set cur.err (the plain err write is ordered before the atomic done
// store, which is what spinning readers synchronize on).
func (w *WAL) releaseLocked(cur *walBatch) {
	cur.done.Store(true)
	if cur.parked {
		cur.flushed.Broadcast()
	}
}

// Rotate implements Rotator: under the store lock it seals the active
// journal segment and opens wal-<gen+1> as the new append target, then
// returns a Rotation whose Commit writes and publishes the snap-<gen+1>
// baseline outside the lock. Rotation is the only part of a snapshot that
// excludes appenders, and it does no state serialization — its cost is one
// file create plus (under relaxed sync policies) one fsync of the sealed
// segment, independent of state size.
func (w *WAL) Rotate() (Rotation, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Park the flush leader first: it writes the segment file outside w.mu,
	// as the interval flusher syncs the mapping, and the file must be
	// quiescent before it is sealed and swapped. The
	// paused flag makes the leader yield after its in-flight batch instead
	// of waiting for the queue to drain, which under sustained load it
	// never would.
	for w.flushing {
		w.paused = true
		w.idle.Wait()
	}
	w.paused = false
	// Whatever happens next, appends that parked while the leader was
	// yielded must get a new leader once the rotation (or its failure) is
	// over; their events land in whatever segment is then active, which is
	// correct — they are unacknowledged until flushed. Registered after the
	// unlock defer, so it runs while w.mu is still held.
	defer w.restartLeaderLocked()
	if w.closed {
		return nil, ErrClosed
	}
	if w.broken {
		return nil, fmt.Errorf("store: journal in failed state: %s", w.lastErr)
	}
	if w.snapPending {
		return nil, fmt.Errorf("store: a snapshot rotation is already in progress")
	}
	gen := w.gen + 1
	newWal, newMap, err := w.openSegment(gen, 0, true)
	if err != nil {
		w.fail(err)
		return nil, fmt.Errorf("store: starting new journal segment: %w", err)
	}
	// Make the new segment's directory entry durable NOW, not at commit
	// time: acknowledged events start landing in it immediately, and a
	// power crash during the (long, out-of-lock) baseline write must not be
	// able to lose the file that holds them.
	w.syncDir()
	// Seal the old segment: sync it so the baseline's cut is at least as
	// durable as the events it subsumes, then stop writing to it. Appends
	// from here on land in the new segment and are replayed after the
	// baseline regardless of whether the commit ever happens.
	if err := w.syncSegmentLocked(); err != nil {
		_ = newMap.unmap()
		_ = newWal.Close()
		_ = os.Remove(filepath.Join(w.dir, segName(walPrefix, gen)))
		w.fail(err)
		return nil, fmt.Errorf("store: syncing sealed segment: %w", err)
	}
	w.syncs++
	if w.m.active() {
		// Trim the sealed segment's chunk padding; best-effort, recovery
		// skips an all-zero tail anyway.
		_ = w.m.unmap()
		_ = w.f.Truncate(int64(w.walBytes))
	}
	_ = w.f.Close()
	w.f, w.m = newWal, newMap
	w.gen = gen
	w.walBytes = 0
	w.segments++
	w.snapPending = true
	return &walRotation{w: w, gen: gen}, nil
}

// walRotation is WAL's Rotation: the handle between a segment rotation and
// the baseline write that completes it.
type walRotation struct {
	w    *WAL
	gen  uint64
	done bool
}

// Commit implements Rotation: it writes the baseline to a temp file, fsyncs
// it, atomically renames it into place and deletes the generations it
// subsumes. Only the rename is the commit point — a crash or failure before
// it leaves the previous snapshot plus the segment chain authoritative, so
// nothing acknowledged is ever lost. No store lock is held during the file
// write; concurrent appends proceed.
func (r *walRotation) Commit(state []Event) error {
	w := r.w
	if r.done {
		return fmt.Errorf("store: rotation already completed")
	}
	r.done = true
	final := filepath.Join(w.dir, segName(snapPrefix, r.gen))
	tmp := final + tmpSuffix
	err := w.writeSnapshotFile(tmp, state)
	if err == nil {
		if rerr := os.Rename(tmp, final); rerr != nil {
			_ = os.Remove(tmp)
			err = fmt.Errorf("store: publishing snapshot: %w", rerr)
		}
	}
	w.mu.Lock()
	w.snapPending = false
	if err != nil {
		w.fail(err)
		w.mu.Unlock()
		return err
	}
	oldSnap := w.snapGen
	w.snapGen = r.gen
	subsumed := w.segments - int(w.gen-r.gen) - 1
	w.segments -= subsumed
	w.snapshots++
	w.snapshotEvents = uint64(len(state))
	w.syncs++ // the baseline fsync inside writeSnapshotFile
	w.mu.Unlock()
	w.syncDir()
	// Best-effort cleanup of everything the new baseline subsumes.
	if oldSnap > 0 {
		_ = os.Remove(filepath.Join(w.dir, segName(snapPrefix, oldSnap)))
	}
	start := oldSnap
	if start == 0 {
		start = 1
	}
	for gen := start; gen < r.gen; gen++ {
		_ = os.Remove(filepath.Join(w.dir, segName(walPrefix, gen)))
	}
	return nil
}

// Abort implements Rotation: the snapshot is abandoned, the rotated segment
// stays (its events replay after the previous baseline), and a later
// snapshot rotates again.
func (r *walRotation) Abort() {
	if r.done {
		return
	}
	r.done = true
	r.w.mu.Lock()
	r.w.snapPending = false
	r.w.mu.Unlock()
}

// Snapshot is a one-phase convenience: rotate, then immediately write and
// publish the baseline. Callers that need appends to proceed during the
// baseline write use Rotate/Commit directly and collect their state
// between the two.
func (w *WAL) Snapshot(state []Event) error {
	rot, err := w.Rotate()
	if err != nil {
		return err
	}
	return rot.Commit(state)
}

// snapBufPool recycles the snapshot-file encode buffer across snapshots;
// the buffer grows to the full baseline size once and is then reused.
var snapBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<16); return &b }}

// writeSnapshotFile writes state as framed records to path and fsyncs it.
// It runs outside w.mu (Commit's baseline write is concurrent with appends)
// and therefore touches no shared counters; the caller accounts the fsync.
func (w *WAL) writeSnapshotFile(path string, state []Event) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, walFileMode)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	bp := snapBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() { *bp = buf[:0]; snapBufPool.Put(bp) }()
	for _, ev := range state {
		buf, err = appendRecord(buf, ev)
		if err != nil {
			_ = f.Close()
			_ = os.Remove(path)
			return err
		}
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs the journal directory so renames and creates are durable.
// Best effort: some platforms reject directory fsync.
func (w *WAL) syncDir() {
	d, err := os.Open(w.dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Recover implements SessionStore, returning the events loaded at open.
func (w *WAL) Recover() ([]Event, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	return w.recovered, nil
}

// Close implements SessionStore: it drains any in-flight group commit,
// stops the background flusher, fsyncs the journal and closes it. Events
// already accepted into a pending batch are flushed before the file closes;
// new appends fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for w.flushing {
		w.idle.Wait()
	}
	if w.pending != nil {
		// A leader yielded to a Rotate that never restarted one (or the
		// pause raced Close): flush the stragglers ourselves — lead ignores
		// paused once closed is set.
		w.flushing = true
		w.lead()
	}
	w.mu.Unlock()
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var firstErr error
	if err := w.syncSegmentLocked(); err != nil {
		firstErr = err
	} else {
		w.syncs++
	}
	if w.m.active() {
		if err := w.m.unmap(); err != nil && firstErr == nil {
			firstErr = err
		}
		// Trim the chunk padding so the closed journal ends on a record
		// boundary; recovery tolerates the padding regardless.
		if err := w.f.Truncate(int64(w.walBytes)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		w.fail(firstErr)
		return fmt.Errorf("store: closing WAL: %w", firstErr)
	}
	return nil
}

// Health implements Healther.
func (w *WAL) Health() Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Health{
		Backend:            "wal",
		Appends:            w.appends,
		AppendedBytes:      w.appendedBytes,
		Flushes:            w.flushes,
		Syncs:              w.syncs,
		Failures:           w.failures,
		LastError:          w.lastErr,
		Snapshots:          w.snapshots,
		SnapshotEvents:     w.snapshotEvents,
		RecoveredEvents:    uint64(len(w.recovered)),
		TruncatedTail:      w.truncatedTail,
		DroppedBytes:       w.droppedBytes,
		JournalBytes:       w.walBytes,
		Generation:         w.gen,
		SnapshotGeneration: w.snapGen,
		Segments:           w.segments,
		Mmap:               w.m.active(),
		Broken:             w.broken,
	}
}
