// Package store provides durable persistence for the server's session
// state. In SVT the privacy guarantee lives in mutable per-session state —
// the realized (ε₁, ε₂, ε₃) budget split, the count of answered queries and
// consumed positive outcomes, and the halt flag. A server that forgets this
// state on a crash silently refreshes spent privacy budget, which is a
// privacy bug, not merely an availability gap. This package is the
// journaling layer that prevents it.
//
// The SessionStore interface is deliberately small and application-agnostic:
// the server appends opaque Events (a kind tag, a session ID and a payload
// it encodes itself), one at a time or as one atomic batch, periodically
// compacts the journal with a two-phase snapshot (Rotate under the caller's
// lock, Rotation.Commit of a full-state baseline outside it), and replays
// the event stream once at startup. Every backend implements the whole
// interface; nothing is optional. Two backends are provided:
//
//   - Mem: a no-op backend that tests use. Appends and snapshots are
//     counted and discarded; Recover returns nothing.
//   - WAL: an append-only write-ahead log of length-prefixed, CRC-checked
//     records with periodic snapshot compaction and truncated-tail-tolerant
//     recovery. Appends go through a memory-mapped segment on Linux (memcpy
//     durability == unbuffered write durability, no syscall) and group
//     commit coalesces concurrent appends into shared flushes wherever a
//     durability round-trip is needed. See NewWAL.
//
// New backends (e.g. a replicated log or a key-value store) implement
// SessionStore and plug into server.ManagerConfig.Store without any change
// to the serving layer.
package store

import (
	"errors"
	"time"
)

// Event is one journaled state transition. The store treats it as opaque:
// Kind and Data are defined by the application (the server package journals
// session create/progress/delete/expire transitions), ID is the session the
// event belongs to.
type Event struct {
	// Kind tags the event type; 0 is reserved as invalid.
	Kind byte
	// ID is the session identifier the event applies to.
	ID string
	// Data is the application-encoded payload; may be empty.
	Data []byte
}

// SessionStore journals session state transitions and replays them after a
// restart. Every backend implements all of it. Implementations must make
// Append, AppendBatch, Rotate, Health and Close safe for concurrent use;
// Recover is called once, before the first Append, and SetInstrumenter
// before the store is used concurrently.
type SessionStore interface {
	// Append durably journals one event. The caller must not release the
	// response that acknowledges the event's state transition until Append
	// has returned nil (the store's sync policy decides how hard that
	// durability promise is). Implementations must not retain ev.Data past
	// Append's return: callers are free to recycle the buffer, which is how
	// the server keeps the query hot path allocation-free.
	Append(ev Event) error
	BatchAppender
	Rotator
	// Recover returns the event stream to replay: the latest snapshot's
	// events followed by every appended event that survived, in order. It is
	// called once before the first Append.
	Recover() ([]Event, error)
	Healther
	Instrumented
	// Close flushes and releases the store. Append after Close fails.
	Close() error
}

// BatchAppender is the batched-append side of a SessionStore: one call
// journals several events with ONE durability round-trip (for the WAL, one
// buffered write plus at most one fsync), and the whole batch is atomic on
// recovery — either every event replays or none does, so a crash mid-way
// through a multi-event transition cannot replay half of it. The same
// response-release contract as Append applies to the batch as a whole, and
// ev.Data buffers must likewise not be retained.
type BatchAppender interface {
	AppendBatch(evs []Event) error
}

// Rotation is an in-progress two-phase snapshot, started by Rotator.Rotate.
// Exactly one of Commit or Abort must be called on every Rotation.
type Rotation interface {
	// Commit writes the full-state baseline for the rotation's generation and
	// publishes it, making it the new recovery baseline and discarding the
	// journal segments it subsumes. It runs outside the store's append path:
	// appends proceed concurrently into the segment the rotation opened.
	// After a crash, Recover yields the baseline's events first, then any
	// events appended after the rotation. Like Append, implementations must
	// not retain the state slice or any Event.Data past Commit's return:
	// the caller encodes the whole baseline into one pooled arena and
	// recycles it as soon as the call comes back.
	Commit(state []Event) error
	// Abort abandons the snapshot. The rotated segment stays in place — the
	// events appended to it are replayed after the previous baseline — and a
	// later snapshot simply rotates again.
	Abort()
}

// Rotator is the two-phase snapshot side of a SessionStore. The point of
// the split is lock scope:
// Rotate is cheap (for the WAL, open a fresh journal segment) and is called
// inside the caller's exclusive section that guarantees a consistent cut,
// while Commit does the expensive serialize-and-persist work outside it, so
// query traffic is never stalled behind a full-state file write. Callers
// must not run two rotations concurrently.
type Rotator interface {
	Rotate() (Rotation, error)
}

// Instrumenter receives timing measurements from inside a store's write
// and recovery paths — the internals that counters alone cannot expose
// (latency distributions, realized group-commit batch sizes). The
// telemetry layer implements it with histograms; backends call it so
// Mem, WAL and future replicated stores report uniformly.
//
// Implementations must be cheap (a few atomic operations) and safe for
// concurrent use: AppendSampled and FlushObserved are called from the
// append and flush paths, in some cases while the store's internal lock
// is held.
type Instrumenter interface {
	// AppendSampled reports the caller-observed latency of one append
	// (enqueue through durability acknowledgement). Appends are SAMPLED:
	// one call stands for weight appends, so rates derived from the
	// observation count estimate the full population.
	AppendSampled(d time.Duration, weight uint64)
	// FlushObserved reports one physical flush with its phase breakdown;
	// see Flush.
	FlushObserved(f Flush)
	// RecoveryObserved reports the duration of the store's open-time
	// recovery scan and how many events it replayed. Called once, when
	// the instrumenter is attached.
	RecoveryObserved(d time.Duration, events int)
}

// Flush is one physical flush reported through Instrumenter.FlushObserved,
// broken into the phases a group commit actually spends time in, so the
// tracing layer can render a journal wait as gather → write → sync rather
// than one opaque interval.
type Flush struct {
	// Events is how many events the group-commit batch carried; 0 for a
	// background interval sync, which flushes whatever bytes are buffered
	// rather than a counted batch.
	Events int
	// Gather is how long the flush leader held the batch open for
	// concurrent appenders to join (the commit window or scheduler
	// yield); 0 when the flush had no gather phase.
	Gather time.Duration
	// Write is the physical write() of the batch; 0 in mmap mode, where
	// appenders copied their records into the mapping directly.
	Write time.Duration
	// Sync is the durability barrier (fsync/msync); 0 when the flush
	// needed no barrier under the store's sync policy.
	Sync time.Duration
}

// Instrumented is the instrumentation side of a SessionStore.
// SetInstrumenter must be called before the store is used concurrently
// (the server attaches telemetry while opening the manager, before it
// serves traffic); passing nil detaches.
type Instrumented interface {
	SetInstrumenter(Instrumenter)
}

// Health is a point-in-time snapshot of a store's internal counters, for
// surfacing in operational endpoints (the server exposes it in /v1/stats).
type Health struct {
	// Backend names the implementation: "mem" or "wal".
	Backend string `json:"backend"`
	// Appends counts successful Append calls since open.
	Appends uint64 `json:"appends"`
	// AppendedBytes counts record bytes written by Append since open.
	AppendedBytes uint64 `json:"appendedBytes"`
	// Flushes counts physical journal writes since open. Under group
	// commit many concurrent appends coalesce into one flush, so
	// Appends/Flushes is the realized batching ratio (1.0 means no
	// coalescing happened).
	Flushes uint64 `json:"flushes,omitempty"`
	// Syncs counts fsync calls since open.
	Syncs uint64 `json:"syncs"`
	// Failures counts append, snapshot and sync errors since open.
	Failures uint64 `json:"failures"`
	// LastError is the most recent failure, "" when none.
	LastError string `json:"lastError,omitempty"`
	// Snapshots counts successful snapshot commits since open.
	Snapshots uint64 `json:"snapshots"`
	// SnapshotEvents is the event count of the latest snapshot.
	SnapshotEvents uint64 `json:"snapshotEvents"`
	// RecoveredEvents is how many events Recover replayed at open.
	RecoveredEvents uint64 `json:"recoveredEvents"`
	// TruncatedTail reports that recovery found and dropped a torn final
	// record (the expected signature of a crash mid-append).
	TruncatedTail bool `json:"truncatedTail,omitempty"`
	// DroppedBytes is how many trailing journal bytes recovery discarded.
	DroppedBytes uint64 `json:"droppedBytes,omitempty"`
	// JournalBytes is the current size of the active journal segment.
	JournalBytes uint64 `json:"journalBytes"`
	// Generation is the active journal segment's generation number.
	Generation uint64 `json:"generation"`
	// SnapshotGeneration is the latest published snapshot's generation, 0
	// when none exists yet. It trails Generation while a two-phase snapshot
	// is between rotation and commit, or after a failed commit.
	SnapshotGeneration uint64 `json:"snapshotGeneration,omitempty"`
	// Segments is the number of live journal segments. More than one means
	// recovery will replay a multi-segment chain (the expected state between
	// a rotation and its commit; persistent growth means snapshots are
	// failing).
	Segments int `json:"segments,omitempty"`
	// Mmap reports that the journal appends through a memory-mapped
	// segment (the fast path) rather than write() calls. Durability is
	// identical; with mmap, Flushes counts sync barriers rather than
	// physical writes.
	Mmap bool `json:"mmap,omitempty"`
	// Broken reports that the store has entered a failed state it cannot
	// recover from without a restart (for the WAL: the journal offset is
	// unknown after a failed rollback) and is refusing writes. A broken
	// store is unhealthy — the server's /healthz degrades on it.
	Broken bool `json:"broken,omitempty"`
}

// Healther is the health-reporting side of a SessionStore.
type Healther interface {
	Health() Health
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")
