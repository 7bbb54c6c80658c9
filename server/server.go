// Package server turns the repo's single-caller mechanisms into a
// sharded, multi-tenant session service: many analysts each hold an
// interactive session (a mech registry mechanism: an SVT family member or
// a pmw mediator) against private data, all behind one JSON-over-HTTP API
// with per-session privacy-budget accounting.
//
// The SessionManager stripes sessions over N shards (hash of the session
// ID → shard, one mutex and map per shard) so concurrent traffic on
// different sessions never contends on a global lock; a background
// janitor expires idle sessions after their TTL. Each session serializes
// its own mechanism — the library types are not concurrency-safe — so
// correctness of the paper's interaction model is preserved while
// independent sessions scale across cores.
//
// Only differentially private mechanisms are servable. The broken
// historical variants (Roth11, Stoddard, Chen, GPTT) exist in this repo
// to be audited, not deployed, and the server refuses to instantiate
// them.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// ManagerConfig configures a SessionManager. The zero value is usable:
// DefaultShards shards, DefaultTTL idle expiry, DefaultSweepInterval
// janitor cadence, no session cap.
type ManagerConfig struct {
	// Shards is the number of lock stripes; 0 means DefaultShards. More
	// shards means less cross-session lock contention.
	Shards int
	// DefaultTTL is the idle time-to-live applied to sessions that do not
	// request one; 0 means DefaultTTL.
	DefaultTTL time.Duration
	// MaxTTL caps per-session TTL requests; 0 means 24h.
	MaxTTL time.Duration
	// SweepInterval is how often the janitor scans for expired sessions;
	// 0 means DefaultSweepInterval. Expired sessions are also collected
	// lazily on access, so the sweep only bounds memory of abandoned
	// sessions.
	SweepInterval time.Duration
	// MaxSessions caps the number of live sessions; 0 means unlimited.
	// Create returns ErrTooManySessions at the cap.
	MaxSessions int
	// Store journals every budget-mutating session transition and replays
	// it on restart, so spent privacy budget survives a crash. nil means no
	// persistence (the historical purely-in-memory behavior, zero
	// overhead). Use Open when a Store is configured: recovery can fail.
	Store store.SessionStore
	// SnapshotInterval is how often the manager compacts the journal with a
	// full-state snapshot; 0 means DefaultSnapshotInterval, negative
	// disables periodic snapshots. Ignored without a Store.
	SnapshotInterval time.Duration
	// Registry is the mechanism registry sessions are built from; nil
	// means mech.Default (every built-in mechanism). The manager captures
	// the registered set at Open time for its per-mechanism counters, so
	// register custom mechanisms before opening.
	Registry *mech.Registry
	// Telemetry, when set, receives the manager's and the store's metric
	// families (see telemetry.go) and enables sampled query-latency
	// histograms. nil means no instrumentation and zero overhead. The
	// registry must not already hold svt_* manager families — one
	// registry serves one manager.
	Telemetry *telemetry.Registry
	// Tracer, when set, lets trace-sampled requests (threaded in through
	// the QueryTrace span) pick up the store's flush-phase breakdown: the
	// manager attaches a store.Instrumenter even without a Telemetry
	// registry so the journal span gains gather/write/sync children. Use
	// the same Tracer in APIConfig. nil with nil Telemetry means no
	// instrumenter is attached at all.
	Tracer *trace.Tracer
	// JournalDeadline bounds how long a request waits for its journal
	// append before failing with the typed, retryable ErrUnavailable
	// (HTTP 503 / wire "unavailable", with Retry-After). 0 disables the
	// deadline: a stalled store stalls the request, the historical
	// behavior. The append itself is never cancelled — see storeAppend
	// for why abandoning the wait keeps budget accounting exact. Ignored
	// without a Store.
	JournalDeadline time.Duration
	// MaxInFlight caps the requests each serving edge holds at once: the
	// HTTP API's /v1/ requests, and the wire queries read into a pass but
	// not yet answered, across all connections. Past its edge's cap a
	// request is load-shed with the typed, retryable "unavailable" (HTTP
	// 503, or an error frame, with a retry hint) instead of queueing toward
	// collapse, and counted in svt_shed_total{edge}. /healthz and /metrics
	// are never shed. 0 means unlimited.
	MaxInFlight int
	// RateLimit gives every tenant one token bucket across both serving
	// edges: each HTTP /v1/ request (tenant from the X-Tenant header) and
	// each wire frame after the hello (tenant from the hello) spends a
	// token. A rejected request gets the typed "rate_limited" (HTTP 429,
	// or an error frame, with a retry hint), counted per tenant in Stats
	// and svt_http_rate_limited_total. A zero Rate disables it; any other
	// invalid setting fails Open.
	RateLimit RateLimitConfig
}

// Defaults for ManagerConfig zero values.
const (
	DefaultShards           = 16
	DefaultTTL              = 10 * time.Minute
	DefaultMaxTTL           = 24 * time.Hour
	DefaultSweepInterval    = 30 * time.Second
	DefaultSnapshotInterval = time.Minute
	DefaultMaxTenantSeries  = 128
)

// OtherTenant is the label value per-tenant metric series aggregate into
// once DefaultMaxTenantSeries distinct tenants have their own.
const OtherTenant = "_other"

// ErrTooManySessions is returned by Create when MaxSessions live sessions
// already exist.
var ErrTooManySessions = fmt.Errorf("server: session cap reached")

// shard is one lock stripe: a mutex-guarded slice of the session table
// plus its share of the service counters. Counters are atomics so Stats
// can aggregate without taking any shard lock.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session

	created atomic.Uint64
	deleted atomic.Uint64
	expired atomic.Uint64
	// queries/positives/halts count answered queries, consumed positive
	// outcomes and halt transitions per mechanism, indexed by the
	// manager's registry-derived mechIndex (fixed at Open time).
	queries   []atomic.Uint64
	positives []atomic.Uint64
	halts     []atomic.Uint64
}

// SessionManager owns all live sessions.
type SessionManager struct {
	shards     []*shard
	defaultTTL time.Duration
	maxTTL     time.Duration
	maxLive    int
	live       atomic.Int64

	// registry is the mechanism registry sessions are built from;
	// mechInfos/mechNames/mechIndex freeze the registered set at Open time
	// so the per-shard query counters stay a lock-free flat array and
	// discovery, stats and create agree on one servable set.
	registry  *mech.Registry
	mechInfos []MechanismInfo
	mechNames []Mechanism
	mechIndex map[Mechanism]int

	// store is the persistence backend; nil means no journaling at all.
	// journalMu orders journal appends against snapshot compaction: every
	// mutate-then-append pair holds the read side; SnapshotNow holds the
	// write side only while it rotates the journal segment and copies the
	// per-session records — the baseline encode and file write happen
	// outside it, concurrent with query traffic. snapMu serializes whole
	// snapshots against each other (the periodic loop vs. an explicit
	// SnapshotNow at shutdown).
	store             store.SessionStore
	journalMu         sync.RWMutex
	snapMu            sync.Mutex
	recoveredSessions int
	// unjournaled is the transaction every caller shares when there is no
	// store (see beginTx).
	unjournaled journalTx

	// Journal-append deadline machinery (deadline.go): a bounded free
	// list of waiter goroutines, the configured deadline (0 = off), and
	// the svt_journal_deadline_exceeded_total counter.
	journalDeadline  time.Duration
	waiters          chan *journalWaiter
	waitersClosed    atomic.Bool
	deadlineExceeded atomic.Uint64

	// gate is the admission both serving edges share: the rate limiter
	// and the in-flight cap.
	gate admission

	// Snapshot failure accounting, surfaced in Stats: a store that can no
	// longer compact will eventually exhaust its disk, so the operator must
	// see it even though serving continues.
	snapFailures atomic.Uint64
	snapLastErr  atomic.Value // string

	// tel holds the telemetry handles when cfg.Telemetry was set; nil
	// means no instrumentation (and no overhead) anywhere in the manager.
	tel *managerTelemetry
	// storeInst is the instrumenter attached to the store when telemetry
	// or tracing is on; traced requests read its last-flush phase
	// breakdown to build the journal span's store children.
	storeInst *storeTelemetry
	// snapLastOK is the wall-clock time (unix nanos) of the last
	// successful snapshot, 0 before the first; SnapshotAge derives the
	// staleness surfaced in /healthz and /metrics.
	snapLastOK atomic.Int64

	// logf emits operational warnings; swappable in tests.
	logf func(format string, args ...any)

	janitorStop  chan struct{}
	janitorDone  chan struct{}
	snapshotDone chan struct{}
	closeOnce    sync.Once

	// now is the clock, swappable in tests.
	now func() time.Time
}

// Open builds the shard table, recovers journaled sessions from cfg.Store
// (when one is configured), starts the janitor and the periodic snapshot
// loop, and returns the ready manager. Callers must Close it. Recovery is
// strict: a session whose journaled state cannot be rebuilt fails Open
// rather than silently refreshing its spent privacy budget.
func Open(cfg ManagerConfig) (*SessionManager, error) {
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = DefaultShards
	}
	ttl := cfg.DefaultTTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	maxTTL := cfg.MaxTTL
	if maxTTL <= 0 {
		maxTTL = DefaultMaxTTL
	}
	if ttl > maxTTL {
		ttl = maxTTL
	}
	sweep := cfg.SweepInterval
	if sweep <= 0 {
		sweep = DefaultSweepInterval
	}
	registry := cfg.Registry
	if registry == nil {
		registry = mech.Default
	}
	m := &SessionManager{
		shards:      make([]*shard, nshards),
		defaultTTL:  ttl,
		maxTTL:      maxTTL,
		maxLive:     cfg.MaxSessions,
		registry:    registry,
		store:       cfg.Store,
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		now:         time.Now,
		logf:        log.Printf,
	}
	m.unjournaled.m = m
	if cfg.RateLimit.Rate != 0 {
		rl, err := newRateLimiter(cfg.RateLimit)
		if err != nil {
			return nil, err
		}
		m.gate.limiter = rl
	}
	m.gate.maxInFlight = int64(max(cfg.MaxInFlight, 0))
	m.gate.on = m.gate.limiter != nil || m.gate.maxInFlight > 0
	if m.store != nil && cfg.JournalDeadline > 0 {
		m.journalDeadline = cfg.JournalDeadline
		m.waiters = make(chan *journalWaiter, 64)
	}
	m.captureMechanisms()
	for i := range m.shards {
		m.shards[i] = &shard{
			sessions:  make(map[string]*Session),
			queries:   make([]atomic.Uint64, len(m.mechNames)),
			positives: make([]atomic.Uint64, len(m.mechNames)),
			halts:     make([]atomic.Uint64, len(m.mechNames)),
		}
	}
	// The store instrumenter serves two consumers: telemetry histograms
	// and the tracer's flush-phase breakdown. Build it when either is on.
	if m.store != nil && (cfg.Telemetry != nil || cfg.Tracer != nil) {
		m.storeInst = &storeTelemetry{}
	}
	if cfg.Telemetry != nil {
		// Register before recovery so the store instrumenter is attached
		// while the open-time snapshot's appends flow (recovery itself ran
		// in the store's constructor; its measurement is replayed onto the
		// instrumenter at attach).
		m.tel = m.registerManagerTelemetry(cfg.Telemetry)
	}
	if m.storeInst != nil {
		m.store.SetInstrumenter(m.storeInst)
	}
	if m.store != nil {
		if err := m.recoverSessions(); err != nil {
			return nil, err
		}
		// Collapse the replayed journal into a fresh snapshot immediately,
		// so repeated crashes cannot grow the journal without bound.
		if err := m.SnapshotNow(); err != nil {
			return nil, err
		}
	}
	go m.janitor(sweep)
	if m.store != nil && cfg.SnapshotInterval >= 0 {
		interval := cfg.SnapshotInterval
		if interval == 0 {
			interval = DefaultSnapshotInterval
		}
		m.snapshotDone = make(chan struct{})
		go m.snapshotLoop(interval)
	}
	return m, nil
}

// NewSessionManager is the store-less constructor kept for in-memory
// callers: it is Open with the guarantee that construction cannot fail.
// It panics if Open fails, which only a configured Store or an invalid
// RateLimit can cause — prefer Open then.
func NewSessionManager(cfg ManagerConfig) *SessionManager {
	m, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Close stops the janitor and the snapshot loop. Live sessions stay
// queryable; Close exists so tests and graceful shutdown do not leak
// goroutines. It does not close the store — the store's owner does that
// after Close returns, so every journaled event is flushed exactly once.
func (m *SessionManager) Close() {
	m.closeOnce.Do(func() {
		close(m.janitorStop)
		<-m.janitorDone
		if m.snapshotDone != nil {
			<-m.snapshotDone
		}
		m.closeWaiters()
	})
}

// Recovered returns how many sessions the manager rebuilt from its store at
// Open time.
func (m *SessionManager) Recovered() int { return m.recoveredSessions }

// janitor periodically sweeps expired sessions.
func (m *SessionManager) janitor(interval time.Duration) {
	defer close(m.janitorDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
			m.Sweep()
		}
	}
}

// Sweep removes every expired session and returns how many it removed.
// The janitor calls it on its interval; it is exported so operators and
// tests can force a pass. Expiries are journaled so recovery does not
// resurrect collected sessions (a lost expire event is benign: the session
// reappears with its budget accounting intact and re-expires by TTL).
func (m *SessionManager) Sweep() int {
	if m.store != nil {
		m.journalMu.RLock()
		defer m.journalMu.RUnlock()
	}
	now := m.now()
	removed := 0
	for _, sh := range m.shards {
		// Collect candidates under the read lock (expiry deadlines are
		// atomics), then confirm under the write lock.
		sh.mu.RLock()
		var stale []*Session
		for _, s := range sh.sessions {
			if s.expired(now) {
				stale = append(stale, s)
			}
		}
		sh.mu.RUnlock()
		if len(stale) == 0 {
			continue
		}
		sh.mu.Lock()
		var collected []string
		for _, s := range stale {
			if cur, ok := sh.sessions[s.id]; ok && cur == s && s.expired(now) {
				delete(sh.sessions, s.id)
				sh.expired.Add(1)
				m.live.Add(-1)
				removed++
				collected = append(collected, s.id)
			}
		}
		sh.mu.Unlock()
		// Journal after releasing the shard lock: an append can fsync, and
		// queries on this shard must not stall behind the janitor. The
		// shard's expiries go down as one atomic batch — one durability
		// round-trip instead of one per session.
		if m.store != nil && len(collected) > 0 {
			evs := make([]store.Event, len(collected))
			for i, id := range collected {
				evs[i] = store.Event{Kind: evExpire, ID: id}
			}
			_ = m.store.AppendBatch(evs)
		}
	}
	return removed
}

// servedNames renders the frozen mechanism set for error messages.
func (m *SessionManager) servedNames() string {
	names := make([]string, len(m.mechNames))
	for i, n := range m.mechNames {
		names[i] = string(n)
	}
	return strings.Join(names, ", ")
}

// shardFor maps a session ID to its stripe by FNV-1a hash, inlined so the
// per-request routing allocates nothing (hash.Hash32 escapes; this loop
// does not). Only the first 16 bytes feed the hash: server-issued IDs are
// random hex, whose prefix alone carries far more entropy than any shard
// count needs, and shard placement is purely an in-process concern.
func (m *SessionManager) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	n := len(id)
	if n > 16 {
		n = 16
	}
	h := uint32(offset32)
	for i := 0; i < n; i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return m.shards[h%uint32(len(m.shards))]
}

// newID returns a fresh 128-bit random session ID.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Create validates p, builds the mechanism, registers the session under a
// fresh random ID and journals it. A session whose create event cannot be
// journaled is rolled back and never exposed.
func (m *SessionManager) Create(p CreateParams) (*Session, error) {
	tx := m.beginTx()
	s, err := tx.create(p)
	if cerr := tx.commit(); cerr != nil {
		return nil, cerr
	}
	return s, err
}

// create builds and registers the session; journalTx.create owns the
// live count.
func (m *SessionManager) create(p CreateParams) (*Session, *shard, error) {
	ttl := m.defaultTTL
	if p.TTLSeconds < 0 || math.IsNaN(p.TTLSeconds) {
		return nil, nil, fmt.Errorf("server: ttlSeconds must be non-negative, got %v", p.TTLSeconds)
	}
	if p.CacheSize != 0 {
		return nil, nil, fmt.Errorf("server: cacheSize is refused: a response cache keyed on the query value makes a hit depend on the private data, so a cached session would have no finite ε")
	}
	if p.TTLSeconds > 0 {
		// Compare in float seconds: converting huge or +Inf values to a
		// Duration first would overflow int64 and wrap negative.
		if p.TTLSeconds >= m.maxTTL.Seconds() {
			ttl = m.maxTTL
		} else {
			ttl = time.Duration(p.TTLSeconds * float64(time.Second))
		}
	}
	id, err := newID()
	if err != nil {
		return nil, nil, err
	}
	// Serve only the mechanism set frozen at Open: a factory registered
	// later would be buildable via the live registry but invisible to the
	// per-mechanism counters and the discovery endpoint.
	idx, served := m.mechIndex[p.Mechanism]
	if !served {
		return nil, nil, fmt.Errorf("server: unknown mechanism %q (serving: %s)", p.Mechanism, m.servedNames())
	}
	s, err := newSession(m.registry, id, p, ttl, m.now())
	if err != nil {
		return nil, nil, err
	}
	s.mechIdx = idx
	sh := m.shardFor(id)
	s.home = sh
	sh.mu.Lock()
	if _, dup := sh.sessions[id]; dup {
		sh.mu.Unlock()
		// 128 random bits colliding means the RNG is broken, not unlucky.
		return nil, nil, fmt.Errorf("server: session id collision")
	}
	sh.sessions[id] = s
	sh.mu.Unlock()
	return s, sh, nil
}

// Get returns the live session with the given ID, refreshing its idle
// deadline. An expired session is collected on the spot and reported as
// absent.
func (m *SessionManager) Get(id string) (*Session, bool) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	now := m.now()
	if s.expired(now) {
		sh.mu.Lock()
		collected := false
		if cur, stillThere := sh.sessions[id]; stillThere && cur == s && s.expired(now) {
			delete(sh.sessions, id)
			sh.expired.Add(1)
			m.live.Add(-1)
			collected = true
		}
		sh.mu.Unlock()
		if collected && m.store != nil {
			// Best-effort and without journalMu of its own (a committing
			// transaction may already hold its read side, and RWMutex read
			// locks must not nest). A lost expire event only resurrects the
			// session on restart with its budget accounting intact; it then
			// re-expires by TTL.
			_ = m.storeAppend([]store.Event{{Kind: evExpire, ID: id}})
		}
		return nil, false
	}
	s.touch(now)
	return s, true
}

// Delete removes the session and reports whether it existed. A failed
// delete-event append is tolerated: the worst case is a deleted session
// resurrecting after a restart with its budget accounting intact, which the
// TTL janitor then collects (the failure is visible in the store's Health).
func (m *SessionManager) Delete(id string) bool {
	tx := m.beginTx()
	ok := tx.delete(id)
	_ = tx.commit()
	return ok
}

// Len returns the number of live sessions (including expired ones the
// janitor has not collected yet).
func (m *SessionManager) Len() int { return int(m.live.Load()) }

// Shards returns the number of lock stripes.
func (m *SessionManager) Shards() int { return len(m.shards) }

// QueryTrace carries per-request observability through the manager: the
// query pipeline hands one in (from its pooled scratch, so tracing
// allocates nothing) and the manager fills in what only it can see — the
// session's mechanism and how long the journal append (the WAL flush
// wait) took. The trace ID travels with it into whatever log line the
// request earns.
type QueryTrace struct {
	// TraceID is the request's correlation ID: the caller's X-Request-Id
	// or wire correlation ID, or the one minted for it.
	TraceID string
	// Mechanism is the queried session's mechanism, filled by the manager.
	Mechanism Mechanism
	// JournalNanos is how long the journal append of the request's
	// transaction took — the store's group-commit/flush wait, shared by
	// every request in a wire read pass — 0 when the manager has no store.
	JournalNanos int64
	// Span is the request's root span when the request is trace-sampled,
	// nil otherwise (every span operation is nil-safe, so the manager
	// threads it unconditionally). The manager hangs its own child —
	// mechanism answer, journal wait, store flush phases — under it.
	Span *trace.Span
}

// exemplarID returns the trace ID a sampled latency observation should
// carry as its exemplar: "" unless the request is trace-sampled.
func exemplarID(tr *QueryTrace) string {
	if tr == nil {
		return ""
	}
	return tr.Span.TraceIDString()
}

// Query routes a batch to the session, journals the released progress and
// maintains the per-mechanism counters, so the serving edges and direct
// (in-process) users share the accounting. When the journal append fails
// the whole response is withheld (ErrStoreAppend): an analyst must never
// observe a DP release the store could forget.
func (m *SessionManager) Query(id string, items []QueryItem) (BatchResult, error) {
	return m.queryInto(id, items, nil, nil)
}

// queryInto is the single-request query entry point: a transaction of
// one (see journalTx.query). It writes the results into dst's backing
// array (dst may be nil), so the query pipeline recycles result slices
// across requests; callers that retain the results pass nil. A non-nil tr
// is filled with the request's trace details, at the cost of a few clock
// reads around the journal append.
func (m *SessionManager) queryInto(id string, items []QueryItem, dst []QueryResult, tr *QueryTrace) (BatchResult, error) {
	tx := m.beginTx()
	res, err := tx.query(id, items, dst, tr)
	if cerr := tx.commit(); cerr != nil {
		return BatchResult{}, cerr
	}
	return res, err
}

// observeQuery records one sampled query-latency observation on the
// session's mechanism histogram. exemplar is the trace ID to attach to
// the observation ("" for none), linking the histogram bucket to a
// retrievable trace.
func (m *SessionManager) observeQuery(s *Session, start int64, exemplar string) {
	if s.mechIdx >= 0 && s.mechIdx < len(m.tel.queryLatency) {
		m.tel.queryLatency[s.mechIdx].ObserveNExemplar(telemetry.Seconds(telemetry.Now()-start), querySamplePeriod, exemplar)
	}
}

// SnapshotAge returns how long ago the last successful snapshot
// finished. ok is false before the first success (including managers
// that never snapshot — no store, or no snapshot policy), so callers
// can distinguish "never" from "just now".
func (m *SessionManager) SnapshotAge() (time.Duration, bool) {
	last := m.snapLastOK.Load()
	if last == 0 {
		return 0, false
	}
	age := m.now().Sub(time.Unix(0, last))
	if age < 0 {
		age = 0
	}
	return age, true
}

// HealthStatus reports whether the manager is fit to serve durable
// traffic, with a reason when it is not: a store in a failed state
// refuses every journal append (all mutating requests 503), and a failed
// last snapshot means the journal can no longer compact. /healthz
// degrades to 503 on either, so load balancers drain the node.
func (m *SessionManager) HealthStatus() (bool, string) {
	if m.store != nil {
		if hs := m.store.Health(); hs.Broken {
			return false, "store in failed state: " + hs.LastError
		}
	}
	if msg, ok := m.snapLastErr.Load().(string); ok && msg != "" {
		return false, "last snapshot failed: " + msg
	}
	return true, ""
}

// ErrSessionNotFound is returned by Query for an unknown or expired ID.
var ErrSessionNotFound = fmt.Errorf("server: session not found")
