package store

import (
	"sync/atomic"
	"time"
)

// Mem is the no-op SessionStore: events are acknowledged, counted and
// discarded, and Recover always returns an empty stream. Tests use it to
// drive the server's journaling path without a disk; serving without
// durability passes no store at all, which skips that path.
type Mem struct {
	appends   atomic.Uint64
	snapshots atomic.Uint64
	closed    atomic.Bool

	// instOn/instTick mirror the WAL's sampled append instrumentation so
	// the two backends report through the same hook; a Mem append is a
	// pair of atomics, so its "latency" mostly measures the hook itself,
	// but keeping the series populated lets dashboards built against one
	// backend work against the other.
	inst     Instrumenter
	instOn   atomic.Bool
	instTick atomic.Uint64
}

var _ SessionStore = (*Mem)(nil)

// NewMem returns a ready no-op store.
func NewMem() *Mem { return &Mem{} }

// SetInstrumenter implements Instrumented; like the WAL's, it must be
// attached before concurrent use. Mem recovers nothing, has no flushes
// and reports an empty recovery immediately.
func (m *Mem) SetInstrumenter(i Instrumenter) {
	m.inst = i
	m.instOn.Store(i != nil)
	if i != nil {
		i.RecoveryObserved(0, 0)
	}
}

// Append implements SessionStore by discarding the event.
func (m *Mem) Append(Event) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if m.instOn.Load() && m.instTick.Add(1)&(appendSamplePeriod-1) == 0 {
		start := time.Now()
		m.appends.Add(1)
		m.inst.AppendSampled(time.Since(start), appendSamplePeriod)
		return nil
	}
	m.appends.Add(1)
	return nil
}

// AppendBatch implements BatchAppender by discarding the events.
func (m *Mem) AppendBatch(evs []Event) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if m.instOn.Load() && m.instTick.Add(1)&(appendSamplePeriod-1) == 0 {
		start := time.Now()
		m.appends.Add(uint64(len(evs)))
		m.inst.AppendSampled(time.Since(start), appendSamplePeriod)
		return nil
	}
	m.appends.Add(uint64(len(evs)))
	return nil
}

// Rotate implements Rotator. Mem has no segments to rotate, so the
// rotation only counts: Commit discards the baseline and counts one
// snapshot, Abort counts nothing.
func (m *Mem) Rotate() (Rotation, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	return memRotation{m}, nil
}

type memRotation struct{ m *Mem }

func (r memRotation) Commit([]Event) error {
	r.m.snapshots.Add(1)
	return nil
}

func (memRotation) Abort() {}

// Recover implements SessionStore: there is never anything to replay.
func (m *Mem) Recover() ([]Event, error) { return nil, nil }

// Close implements SessionStore.
func (m *Mem) Close() error {
	m.closed.Store(true)
	return nil
}

// Health implements Healther.
func (m *Mem) Health() Health {
	return Health{
		Backend:   "mem",
		Appends:   m.appends.Load(),
		Snapshots: m.snapshots.Load(),
	}
}
