package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/store"
)

// ErrUnavailable is the typed, retryable error for requests the server
// declines to finish right now: a journal append that exceeded the
// configured deadline, or load shedding at the in-flight cap. It maps to
// HTTP 503 / the wire "unavailable" code, both carrying Retry-After, so
// well-behaved clients back off and retry instead of hammering a server
// that is already struggling.
//
// Budget safety of the deadline path: when the deadline fires the append
// has not returned, so no event of the transaction was acknowledged
// durable: every response it carried is withheld and its creates are
// rolled back. If the abandoned append later completes anyway, the
// journal holds progress for answers the analyst never received — the
// safe direction (replay can only burn budget, never refresh it) — and
// perhaps a rolled-back create, which after a restart is a session nobody
// holds, collected by its TTL. If it later fails, the in-memory claim was
// never journaled, which is the same already-documented-safe case as a
// plain append failure.
var ErrUnavailable = errors.New("server: temporarily unavailable")

const (
	waiterPending int32 = iota
	waiterAbandoned
	waiterDone
)

// journalWaiter runs store appends on its own long-lived goroutine so the
// request path can bound how long it waits. Each append carries one
// transaction's batch of events. Everything is reused — the goroutine,
// the signal and result channels, the event slice and its data buffer —
// so an armed deadline adds no steady-state allocations to the query hot
// path (the ≤10/≤6 alloc pins include the armed configuration).
type journalWaiter struct {
	m     *SessionManager
	evs   []store.Event
	buf   []byte
	jobs  chan struct{}
	done  chan error
	state atomic.Int32
}

func (m *SessionManager) newWaiter() *journalWaiter {
	w := &journalWaiter{
		m:    m,
		buf:  make([]byte, 0, 256),
		jobs: make(chan struct{}, 1),
		done: make(chan error, 1),
	}
	go w.loop()
	return w
}

// loop serves one append per jobs signal. Ownership of the waiter is
// decided by a CAS on state: if the request goroutine abandoned the wait
// (deadline fired first), the result has no receiver and the loop
// recycles the waiter itself.
func (w *journalWaiter) loop() {
	for range w.jobs {
		err := appendEvents(w.m.store, w.evs)
		if w.state.CompareAndSwap(waiterPending, waiterDone) {
			w.done <- err
		} else {
			w.m.putWaiter(w)
		}
	}
}

func (m *SessionManager) getWaiter() *journalWaiter {
	select {
	case w := <-m.waiters:
		return w
	default:
		return m.newWaiter()
	}
}

// putWaiter parks a waiter on the bounded free list, or retires its
// goroutine when the list is full or the manager is shutting down.
func (m *SessionManager) putWaiter(w *journalWaiter) {
	clear(w.evs)
	w.evs = w.evs[:0]
	if m.waitersClosed.Load() {
		close(w.jobs)
		return
	}
	select {
	case m.waiters <- w:
	default:
		close(w.jobs)
	}
}

// timerPool recycles deadline timers across requests.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// storeAppend is the single chokepoint for request-path journal appends:
// a committing transaction's events and Get's best-effort expiry. Without
// a configured deadline it is a direct call; with one, the append runs on
// a pooled waiter goroutine and a stalled store turns into a typed
// retryable ErrUnavailable after JournalDeadline instead of an unbounded
// hang — one timer for the whole batch. The events are copied into the
// waiter's own buffers first: callers recycle their encode buffers as
// soon as storeAppend returns, which an abandoned append would otherwise
// race.
func (m *SessionManager) storeAppend(evs []store.Event) error {
	d := m.journalDeadline
	if d <= 0 {
		return appendEvents(m.store, evs)
	}
	w := m.getWaiter()
	w.load(evs)
	w.state.Store(waiterPending)
	w.jobs <- struct{}{}
	t := getTimer(d)
	select {
	case err := <-w.done:
		putTimer(t)
		m.putWaiter(w)
		return err
	case <-t.C:
		timerPool.Put(t) // fired: nothing to stop or drain
		if w.state.CompareAndSwap(waiterPending, waiterAbandoned) {
			// The append is still in flight; the waiter's loop will
			// recycle it whenever the store comes back. The events were
			// never acknowledged durable, so withholding the responses
			// keeps accounting exact (see ErrUnavailable); the committing
			// transaction counts them.
			return fmt.Errorf("%w: journal append exceeded deadline (%v)", ErrUnavailable, d)
		}
		// Lost the race: the append completed between the timer firing
		// and the CAS. Take its real result.
		err := <-w.done
		m.putWaiter(w)
		return err
	}
}

// load copies evs into the waiter's reused buffers. The data is sliced
// out of the arena only once it has stopped growing.
func (w *journalWaiter) load(evs []store.Event) {
	w.buf = w.buf[:0]
	for _, ev := range evs {
		w.buf = append(w.buf, ev.Data...)
		w.evs = append(w.evs, store.Event{Kind: ev.Kind, ID: ev.ID})
	}
	start := 0
	for i, ev := range evs {
		end := start + len(ev.Data)
		w.evs[i].Data = w.buf[start:end:end]
		start = end
	}
}

// appendEvents journals evs with one store call: one event through
// Append, so rules and instrumentation keyed on single appends keep
// covering single requests, and several through one atomic AppendBatch
// (sequential Appends on a store without batches). A batch too big for
// one store record — a read pass of many pmw updates, each carrying its
// synthetic histogram, can reach it — goes down as several batches, each
// atomic; a failure part-way then errs only the safe way, as the
// sequential fallback does: journaled progress for answers withheld.
func appendEvents(st store.SessionStore, evs []store.Event) error {
	for len(evs) > 0 {
		n := batchPrefix(evs)
		var err error
		if n == 1 {
			err = st.Append(evs[0])
		} else {
			err = store.AppendAll(st, evs[:n])
		}
		if err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// batchPrefix returns how many leading events of evs fit one batch record
// under store.MaxRecordSize, counted the way the store's batch encoder
// bounds a payload: a kind byte and two varints per event. It is at least
// one; an event alone over the cap fails in the store, as it always did.
func batchPrefix(evs []store.Event) int {
	size := 1 + binary.MaxVarintLen64
	for i, ev := range evs {
		size += 1 + 2*binary.MaxVarintLen64 + len(ev.ID) + len(ev.Data)
		if i > 0 && size > store.MaxRecordSize {
			return i
		}
	}
	return len(evs)
}

// closeWaiters retires the parked waiter goroutines at manager shutdown.
// Waiters still blocked inside a stalled Append retire themselves once
// the store unsticks.
func (m *SessionManager) closeWaiters() {
	if m.waiters == nil {
		return
	}
	m.waitersClosed.Store(true)
	for {
		select {
		case w := <-m.waiters:
			close(w.jobs)
		default:
			return
		}
	}
}
