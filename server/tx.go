package server

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// journalTx is the request path's one journaling path: a transaction that
// carries the state transitions of one or more requests — answered
// queries, created sessions, deleted sessions — made in arrival order
// under one journalMu read lock and made durable by one store append in
// commit. No response acknowledging a transition may leave before commit
// returns nil. Query, Create and Delete each run a transaction of one; the
// wire edge runs one per read pass.
//
// A failed commit withholds every answer the transaction carried (the
// claimed progress is simply never journaled, the safe direction — see
// takeProgress) and rolls back every create, so no analyst ever holds a
// session the journal could forget. Delete events are the exception, as
// they always were: a deleted session that resurrects after a restart
// keeps its budget accounting and re-expires by TTL. Several events go
// down as one atomic batch record, so recovery replays all of a
// transaction or none of it; only a transaction too big for one record
// journals in parts, and a failure part-way then errs only the safe way
// (see appendEvents).
type journalTx struct {
	m *SessionManager
	// evs are the transaction's events; their Data is sliced out of the
	// buf arena only at commit, once the arena has stopped growing, with
	// ends[i] the offset where event i's data ends.
	evs  []store.Event
	ends []int
	buf  []byte
	// created lists the sessions to roll back if the commit fails.
	created []*Session
	// acks counts the requests whose response waits on the commit: the
	// ones a failed commit withholds.
	acks int
	// waits lists the queries whose trace spans or sampled latency
	// observation complete only after the commit.
	waits []txWait
}

// txWait is one query's post-commit bookkeeping.
type txWait struct {
	s  *Session
	tr *QueryTrace
	// ms and js are the query's manager and journal.wait spans.
	ms, js   *trace.Span
	answered int
	start    int64
	sampled  bool
	ok       bool
}

var txPool = sync.Pool{New: func() any { return new(journalTx) }}

// beginTx opens a transaction; the caller must commit it. Without a store
// a transaction journals nothing and no method writes to it, so every
// caller shares the manager's one.
func (m *SessionManager) beginTx() *journalTx {
	if m.store == nil {
		return &m.unjournaled
	}
	tx := txPool.Get().(*journalTx)
	tx.m = m
	m.journalMu.RLock()
	return tx
}

// add records an event whose data the caller has just appended to buf.
//
//svt:hotpath
func (tx *journalTx) add(kind byte, id string) {
	tx.evs = append(tx.evs, store.Event{Kind: kind, ID: id})
	tx.ends = append(tx.ends, len(tx.buf))
}

// query answers a batch on session id, writing the results into dst's
// backing array (dst may be nil), and adds the released progress to the
// transaction. A non-nil tr is filled with the request's trace details;
// the manager span it opens closes at commit, around the journal wait.
// Per-mechanism counting happens inside queryTake, under the session
// lock, where the deltas are exact.
//
//svt:hotpath
func (tx *journalTx) query(id string, items []QueryItem, dst []QueryResult, tr *QueryTrace) (BatchResult, error) {
	m := tx.m
	start, sampled := m.tel.sampleQueryStart()
	s, ok := m.Get(id)
	if !ok {
		return BatchResult{}, ErrSessionNotFound
	}
	// Every span call below is nil-safe: when the request is not
	// trace-sampled (tr nil or tr.Span nil) ms stays nil and the whole
	// block costs a handful of nil checks and zero allocations.
	var ms *trace.Span
	if tr != nil {
		tr.Mechanism = s.mech
		ms = tr.Span.StartChild("manager")
		ms.SetAttr("mechanism", string(s.mech))
	}
	as := ms.StartChild("answer")
	res, d, err := s.queryTake(items, dst, m.store != nil)
	as.End()
	if m.store == nil {
		// Nothing to journal: the query is complete.
		ms.End()
		if sampled && err == nil {
			m.observeQuery(s, start, exemplarID(tr))
		}
		return res, err
	}
	if d.answered > 0 {
		tx.buf = appendProgressDelta(tx.buf, d)
		tx.add(evProgress, s.id)
	}
	if err == nil {
		tx.acks++
	}
	if tr != nil || sampled {
		tx.waits = append(tx.waits, txWait{s: s, tr: tr, ms: ms, answered: d.answered, start: start, sampled: sampled, ok: err == nil})
	}
	return res, err
}

// create validates p, builds the mechanism, registers the session under a
// fresh random ID and adds its create record to the transaction.
func (tx *journalTx) create(p CreateParams) (*Session, error) {
	m := tx.m
	// Reserve the slot first so concurrent Creates cannot overshoot the
	// cap between a check and an increment.
	if n := m.live.Add(1); m.maxLive > 0 && n > int64(m.maxLive) {
		m.live.Add(-1)
		return nil, ErrTooManySessions
	}
	s, sh, err := m.create(p)
	if err != nil {
		m.live.Add(-1)
		return nil, err
	}
	if m.store == nil {
		sh.created.Add(1)
		return s, nil
	}
	rec := s.persistRecord()
	tx.buf = appendSessionRecord(tx.buf, &rec)
	tx.add(evCreate, s.id)
	tx.created = append(tx.created, s)
	tx.acks++
	return s, nil
}

// delete removes the session, reports whether it existed, and adds the
// delete event to the transaction.
func (tx *journalTx) delete(id string) bool {
	m := tx.m
	sh := m.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	if m.store != nil {
		tx.add(evDelete, id)
	}
	sh.deleted.Add(1)
	m.live.Add(-1)
	return true
}

// commit journals the transaction's events with one append, releases the
// journal lock, completes the queries' traces and latency samples, and
// recycles the transaction. On failure every create is rolled back and
// the returned error (ErrUnavailable past the journal deadline,
// ErrStoreAppend otherwise) withholds every response that waited on it.
//
//svt:hotpath
func (tx *journalTx) commit() error {
	m := tx.m
	if m.store == nil {
		return nil
	}
	err := tx.journal()
	m.journalMu.RUnlock()
	for i := range tx.waits {
		w := &tx.waits[i]
		w.ms.End()
		if w.sampled && w.ok && err == nil {
			m.observeQuery(w.s, w.start, exemplarID(w.tr))
		}
	}
	tx.reset()
	return err
}

// journal is commit's step under journalMu: the one store append, the
// journal.wait span of every traced query around it, and the rollback of
// a failed transaction.
func (tx *journalTx) journal() error {
	m := tx.m
	start := 0
	for i, end := range tx.ends {
		tx.evs[i].Data = tx.buf[start:end:end]
		start = end
	}
	traced := false
	for i := range tx.waits {
		if w := &tx.waits[i]; w.tr != nil {
			traced = true
			w.js = w.ms.StartChild("journal.wait")
			w.js.SetAttrInt("answered", int64(w.answered))
		}
	}
	var j0 int64
	if traced {
		j0 = telemetry.Now()
	}
	var err error
	if len(tx.evs) > 0 {
		err = m.storeAppend(tx.evs)
	}
	if traced {
		j := telemetry.Now() - j0
		for i := range tx.waits {
			if w := &tx.waits[i]; w.tr != nil {
				w.tr.JournalNanos = j
				w.js.End()
				if err == nil && m.storeInst != nil {
					// Under SyncAlways the flush observed most recently by
					// the instrumenter is the one this append just waited
					// on; break the journal wait into its gather/write/sync
					// phases.
					m.storeInst.attachFlushPhases(w.js)
				}
			}
		}
	}
	if err == nil {
		for _, s := range tx.created {
			s.home.created.Add(1)
		}
		return nil
	}
	for _, s := range tx.created {
		sh := s.home
		sh.mu.Lock()
		delete(sh.sessions, s.id)
		sh.mu.Unlock()
		m.live.Add(-1)
	}
	if errors.Is(err, ErrUnavailable) {
		m.deadlineExceeded.Add(uint64(tx.acks))
		return err
	}
	return fmt.Errorf("%w: %v", ErrStoreAppend, err)
}

// reset drops everything request-scoped and returns tx to the pool.
func (tx *journalTx) reset() {
	clear(tx.evs)
	clear(tx.created)
	clear(tx.waits)
	tx.evs, tx.ends, tx.buf = tx.evs[:0], tx.ends[:0], tx.buf[:0]
	tx.created, tx.waits = tx.created[:0], tx.waits[:0]
	tx.acks, tx.m = 0, nil
	txPool.Put(tx)
}
