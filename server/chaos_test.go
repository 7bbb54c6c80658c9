package server

// The chaos suite drives real traffic through scripted faults — stalled
// and failing stores, stalled snapshot commits, torn wire connections,
// overload — and asserts the service degrades the way the privacy
// invariants demand: a stalled journal becomes a typed, bounded
// "unavailable" instead of a hang; a stalled snapshot stalls no query;
// overload sheds instead of queueing toward collapse; the client heals
// itself without ever double-spending budget; and after every recovery
// the durable budget accounting matches exactly what the analyst was
// shown. Every schedule is seeded and call-count indexed, so each run
// replays the same faults (see internal/fault).

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/internal/fault"
	"github.com/dpgo/svt/store"
)

// openFaultManager opens a manager configured by cfg over a fault-wrapped
// Mem store.
func openFaultManager(t *testing.T, sched *fault.Schedule, cfg ManagerConfig) *SessionManager {
	t.Helper()
	cfg.Store = fault.Wrap(store.NewMem(), sched)
	cfg.SweepInterval = time.Hour
	cfg.SnapshotInterval = -1
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Release before Close so stalled background appends can drain.
	t.Cleanup(m.Close)
	t.Cleanup(sched.Release)
	return m
}

// waitForCalls blocks until the schedule has seen n calls of op (i.e. a
// stalled operation has actually reached the store).
func waitForCalls(t *testing.T, sched *fault.Schedule, op fault.Op, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sched.Calls(op) < n {
		if time.Now().After(deadline) {
			t.Fatalf("store saw %d %v calls, want %d", sched.Calls(op), op, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosStalledStoreDeadline: a store that stops acking appends must
// not hang requests. The journal deadline converts the stall into a
// typed, retryable ErrUnavailable — HTTP 503 "unavailable" with
// Retry-After — in bounded time, and traffic recovers once the store
// does. The abandoned append completes in the background (budget burned
// for an answer the analyst never saw: the safe direction).
func TestChaosStalledStoreDeadline(t *testing.T) {
	// Append #1 is the create; appends #2 and #3 stall indefinitely.
	sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpAppend, After: 1, Count: 2, Stall: true})
	m := openFaultManager(t, sched, ManagerConfig{JournalDeadline: 50 * time.Millisecond})

	s := mustCreate(t, m, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 8, Seed: 7})

	start := time.Now()
	_, err := m.Query(s.ID(), sureNegative())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("query against stalled store = %v, want ErrUnavailable", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline took %v, want bounded (~50ms)", el)
	}
	if n := m.deadlineExceeded.Load(); n != 1 {
		t.Fatalf("deadlineExceeded = %d, want 1", n)
	}

	// The HTTP edge maps it to 503 + code "unavailable" + Retry-After.
	srv := httptest.NewServer(NewAPI(m, APIConfig{}))
	defer srv.Close()
	url := srv.URL + "/v1/sessions/" + s.ID() + "/query"
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"query": 0, "threshold": 1e12}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error ErrorDetail `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled HTTP query status = %d, want 503", resp.StatusCode)
	}
	if body.Error.Code != CodeUnavailable {
		t.Fatalf("stalled HTTP query code = %q, want %q", body.Error.Code, CodeUnavailable)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response is missing Retry-After")
	}

	// Store recovers: stalled appends drain, new traffic flows.
	sched.Release()
	if _, err := m.Query(s.ID(), sureNegative()); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

// TestChaosSnapshotCommitDoesNotBlockQueries: a snapshot holds the journal
// lock only to rotate the store and copy the session records, so a query
// is answered while the snapshot's baseline write is stalled, and the
// snapshot completes once the store unsticks.
func TestChaosSnapshotCommitDoesNotBlockQueries(t *testing.T) {
	// Commit #1 is Open's snapshot; commit #2 stalls.
	sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpSnapshot, After: 1, Count: 1, Stall: true})
	m := openFaultManager(t, sched, ManagerConfig{})
	s := mustCreate(t, m, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 8, Seed: 7})

	snapped := make(chan error, 1)
	go func() { snapped <- m.SnapshotNow() }()
	waitForCalls(t, sched, fault.OpSnapshot, 2)

	answered := make(chan error, 1)
	go func() {
		_, err := m.Query(s.ID(), surePositive())
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("query during a stalled snapshot commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked behind a stalled snapshot commit")
	}

	sched.Release()
	if err := <-snapped; err != nil {
		t.Fatalf("SnapshotNow after the commit was released: %v", err)
	}
}

// TestChaosOverloadShedsHTTP: with one in-flight slot occupied by a
// request stuck on a stalled store, the HTTP edge sheds the next request
// with 503 "unavailable" + Retry-After instead of queueing it, counts
// the shed, and serves normally once the stall clears. The cap is per
// edge: meanwhile a wire query on the same manager is answered.
func TestChaosOverloadShedsHTTP(t *testing.T) {
	// No journal deadline: the stalled query blocks, pinning its slot.
	sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpAppend, After: 1, Count: 1, Stall: true})
	m := openFaultManager(t, sched, ManagerConfig{MaxInFlight: 1})
	s := mustCreate(t, m, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 8, Seed: 7})

	srv := httptest.NewServer(NewAPI(m, APIConfig{}))
	defer srv.Close()
	url := srv.URL + "/v1/sessions/" + s.ID() + "/query"

	stalled := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"query": 0, "threshold": 1e12}`))
		if err != nil {
			stalled <- -1
			return
		}
		resp.Body.Close()
		stalled <- resp.StatusCode
	}()
	// Append #2 reached the store: the first query now owns the slot.
	waitForCalls(t, sched, fault.OpAppend, 2)

	resp, err := http.Post(url, "application/json", strings.NewReader(`{"query": 0, "threshold": 1e12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded query status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response is missing Retry-After")
	}
	if n := m.gate.shed[edgeHTTP].Load(); n == 0 {
		t.Fatal("HTTP shed count = 0, want > 0")
	}
	c, err := client.Dial(startChaosWire(t, m, WireConfig{}), client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(s.ID(), []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}}); err != nil {
		t.Fatalf("wire query while the HTTP edge is at its cap: %v, want an answer", err)
	}
	if n := m.gate.shed[edgeWire].Load(); n != 0 {
		t.Fatalf("wire shed count = %d, want 0", n)
	}

	sched.Release()
	if code := <-stalled; code != http.StatusOK {
		t.Fatalf("stalled query finished with %d, want 200", code)
	}
	resp, err = http.Post(url, "application/json", strings.NewReader(`{"query": 0, "threshold": 1e12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery = %d, want 200", resp.StatusCode)
	}
}

// startChaosWire runs a WireServer for m on a loopback listener.
func startChaosWire(t *testing.T, m *SessionManager, cfg WireConfig) string {
	t.Helper()
	ws := NewWireServer(m, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestChaosOverloadShedsWire: same shedding contract on the wire edge —
// the query beyond the in-flight cap gets a typed "unavailable" error
// frame with a retry hint, the shed is counted, and afterwards budget
// accounting shows each admitted query answered exactly once.
func TestChaosOverloadShedsWire(t *testing.T) {
	sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpAppend, After: 1, Count: 1, Stall: true})
	m := openFaultManager(t, sched, ManagerConfig{MaxInFlight: 1})
	s := mustCreate(t, m, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 8, Seed: 7})
	addr := startChaosWire(t, m, WireConfig{})

	noRetry := client.Options{
		DialTimeout: 5 * time.Second,
		Retry:       &client.RetryPolicy{MaxAttempts: 1},
	}
	ca, err := client.Dial(addr, noRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(addr, noRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	stalled := make(chan error, 1)
	go func() {
		_, err := ca.Query(s.ID(), []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
		stalled <- err
	}()
	waitForCalls(t, sched, fault.OpAppend, 2)

	_, err = cb.Query(s.ID(), []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != CodeUnavailable {
		t.Fatalf("query beyond cap = %v, want APIError %q", err, CodeUnavailable)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("shed RetryAfter = %v, want > 0", ae.RetryAfter)
	}
	if n := m.gate.shed[edgeWire].Load(); n == 0 {
		t.Fatal("wire shed count = 0, want > 0")
	}

	sched.Release()
	if err := <-stalled; err != nil {
		t.Fatalf("stalled wire query finished with %v, want success", err)
	}
	if _, err := cb.Query(s.ID(), []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}}); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	// Exactly the two admitted queries spent budget; the shed one never
	// reached the session.
	if st := mustStatus(t, m, s.ID()); st.Answered != 2 {
		t.Fatalf("Answered = %d, want 2", st.Answered)
	}
}

// TestChaosWireClientReconnect: a scripted mid-frame tear kills the
// connection while a sequential workload runs. The torn frame provably
// never reached the server (the write failed), so the client reconnects
// and retries it; the workload completes with every query answered
// exactly once — no lost answers, no double-spent budget.
func TestChaosWireClientReconnect(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	addr := startChaosWire(t, m, WireConfig{})

	// Write #7 (a query frame: 1 hello + 1 mechanisms + 1 create before
	// the queries start) forwards 3 bytes, then the connection dies.
	sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpWrite, After: 6, Count: 1, Tear: true, TearAfter: 3})
	c, err := client.Dial(addr, client.Options{
		DialTimeout: 5 * time.Second,
		Retry:       &client.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
		Dialer: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return fault.WrapConn(conn, sched), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess, err := c.Create(client.CreateParams{Mechanism: "sparse", Epsilon: 1, MaxPositives: 4})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const queries = 20
	for i := 0; i < queries; i++ {
		res, err := c.Query(sess.ID, []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Results) != 1 {
			t.Fatalf("query %d: %d results", i, len(res.Results))
		}
	}
	if st := c.Stats(); st.Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", st.Reconnects)
	}
	// Budget exactness across the tear: the server answered exactly the
	// acked queries — the torn one was not executed, its retry was.
	if st := mustStatus(t, m, sess.ID); st.Answered != queries {
		t.Fatalf("Answered = %d, want %d", st.Answered, queries)
	}
	if err := c.Delete(sess.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
}

// TestChaosStoreFaultBudgetExactness: appends that fail with a real
// error (not a stall) refuse the response, and after a restart the
// recovered budget accounting matches exactly the answers the analyst
// was shown — failed appends never became durable, acked ones all did.
func TestChaosStoreFaultBudgetExactness(t *testing.T) {
	dir := t.TempDir()
	wal, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Append #1 is the create; appends #3 and #4 (queries 2 and 3) fail.
	sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpAppend, After: 2, Count: 2, Err: fault.ErrInjected})
	m1, err := Open(ManagerConfig{
		Store:            fault.Wrap(wal, sched),
		SweepInterval:    time.Hour,
		SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustCreate(t, m1, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 20, Seed: 7})

	acked := 0
	for i := 0; i < 10; i++ {
		_, err := m1.Query(s.ID(), sureNegative())
		switch {
		case err == nil:
			acked++
		case errors.Is(err, ErrStoreAppend):
			// Response withheld: the analyst never saw this answer.
		default:
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if acked != 8 {
		t.Fatalf("acked = %d, want 8 (two injected append failures)", acked)
	}
	m1.Close()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(ManagerConfig{Store: wal2, SweepInterval: time.Hour, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.Close(); wal2.Close() })
	if st := mustStatus(t, m2, s.ID()); st.Answered != acked {
		t.Fatalf("recovered Answered = %d, want %d (exactly the acked answers)", st.Answered, acked)
	}
}
