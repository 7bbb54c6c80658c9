package server

// End-to-end tests for the binary wire edge: full parity with the HTTP
// API (journal-before-response, rate limiting, telemetry counters,
// request-ID correlation; the trace tree shape is checked over both edges
// in trace_test.go), pipelined responses matched by request ID, read
// passes as single journal transactions (and their failure), graceful
// drain on shutdown, and torn-connection robustness.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dpgo/svt/internal/fault"
	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
	"github.com/dpgo/svt/wire"
)

// startWireServer serves ws on an ephemeral port and returns the address.
func startWireServer(t *testing.T, ws *WireServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// wireTestConn is a raw-frame test client: it speaks the protocol without
// the SDK so tests control framing, pipelining and teardown exactly.
type wireTestConn struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	next uint64
}

func newWireTestConn(t *testing.T, c net.Conn) *wireTestConn {
	return &wireTestConn{t: t, c: c, br: bufio.NewReader(c)}
}

func dialWire(t *testing.T, addr, tenant, traceparent string) *wireTestConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	tc := newWireTestConn(t, c)
	id := tc.send(wire.OpHello, func(dst []byte) []byte {
		return wire.AppendHelloBody(dst, &wire.Hello{Version: wire.Version, Tenant: tenant, Traceparent: traceparent})
	})
	op, gotID, _ := tc.read()
	if op != wire.OpHelloOK || gotID != id {
		t.Fatalf("handshake answered op %#x id %d, want helloOK id %d", op, gotID, id)
	}
	return tc
}

// send writes one frame whose body is built by appendBody and returns its
// request ID. It does not read the response.
func (tc *wireTestConn) send(op byte, appendBody func([]byte) []byte) uint64 {
	tc.t.Helper()
	tc.next++
	payload := wire.AppendHeader(nil, op, tc.next)
	if appendBody != nil {
		payload = appendBody(payload)
	}
	if _, err := tc.c.Write(wire.AppendFrame(nil, payload)); err != nil {
		tc.t.Fatal(err)
	}
	return tc.next
}

// read returns the next response frame. Each read gets its own buffer so
// earlier bodies stay valid.
func (tc *wireTestConn) read() (op byte, reqID uint64, body []byte) {
	tc.t.Helper()
	payload, err := wire.ReadFrame(tc.br, nil, wire.DefaultMaxFrameBytes)
	if err != nil {
		tc.t.Fatalf("reading frame: %v", err)
	}
	op, reqID, body, err = wire.ParseHeader(payload)
	if err != nil {
		tc.t.Fatalf("parsing response header: %v", err)
	}
	return op, reqID, body
}

// query round-trips one single-query batch and returns the response.
func (tc *wireTestConn) query(session, corr string, items []wire.QueryItem) (wire.QueryResponse, *wire.ErrorFrame) {
	tc.t.Helper()
	id := tc.send(wire.OpQuery, func(dst []byte) []byte {
		return wire.AppendQueryBody(dst, session, corr, items)
	})
	op, gotID, body := tc.read()
	if gotID != id {
		tc.t.Fatalf("response for request %d, want %d", gotID, id)
	}
	switch op {
	case wire.OpQueryOK:
		var qr wire.QueryResponse
		if err := wire.DecodeQueryOKBody(body, &qr); err != nil {
			tc.t.Fatalf("decoding query response: %v", err)
		}
		return qr, nil
	case wire.OpError:
		var ef wire.ErrorFrame
		if err := wire.DecodeErrorBody(body, &ef); err != nil {
			tc.t.Fatalf("decoding error frame: %v", err)
		}
		return wire.QueryResponse{}, &ef
	default:
		tc.t.Fatalf("unexpected response op %#x", op)
		return wire.QueryResponse{}, nil
	}
}

func sureNegativeWire() []wire.QueryItem {
	return []wire.QueryItem{{Query: 0, Threshold: 1e12, HasThreshold: true}}
}

// TestWireQueryEndToEnd drives every op over a real TCP connection:
// create (JSON body, tenant from hello), query (binary), status, delete,
// mechanisms — and checks the responses against the manager's view.
func TestWireQueryEndToEnd(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	ws := NewWireServer(m, WireConfig{})
	addr := startWireServer(t, ws)
	tc := dialWire(t, addr, "acme", "")

	// Mechanisms carries the HTTP JSON body verbatim.
	id := tc.send(wire.OpMechanisms, nil)
	op, gotID, body := tc.read()
	if op != wire.OpMechanismsOK || gotID != id {
		t.Fatalf("mechanisms answered op %#x id %d", op, gotID)
	}
	var mr MechanismsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Mechanisms) == 0 {
		t.Fatal("no mechanisms over the wire")
	}

	// Create: JSON body, tenant fixed by the hello frame.
	params, _ := json.Marshal(sparseParams())
	id = tc.send(wire.OpCreate, func(dst []byte) []byte { return append(dst, params...) })
	op, gotID, body = tc.read()
	if op != wire.OpCreateOK || gotID != id {
		t.Fatalf("create answered op %#x id %d: %s", op, gotID, body)
	}
	var cr CreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" || cr.TTLSeconds <= 0 {
		t.Fatalf("create response %+v", cr)
	}
	if s, ok := m.Get(cr.ID); !ok || s.params.Tenant != "acme" {
		t.Fatalf("created session missing or wrong tenant")
	}

	// Query: one ⊥ answer, remaining decremented, corr echoed verbatim.
	qr, ef := tc.query(cr.ID, "client-chose-this", sureNegativeWire())
	if ef != nil {
		t.Fatalf("query error %+v", ef)
	}
	if len(qr.Results) != 1 || qr.Results[0].Above || qr.Halted {
		t.Fatalf("query response %+v", qr)
	}
	if string(qr.Corr) != "client-chose-this" {
		t.Fatalf("corr %q not echoed verbatim", qr.Corr)
	}

	// Without a client corr the server mints one, X-Request-Id style.
	qr, ef = tc.query(cr.ID, "", sureNegativeWire())
	if ef != nil {
		t.Fatalf("query error %+v", ef)
	}
	if len(qr.Corr) != 16 || !isHex(string(qr.Corr)) {
		t.Fatalf("minted corr %q, want 16 hex chars", qr.Corr)
	}

	// Status agrees with the manager.
	id = tc.send(wire.OpStatus, func(dst []byte) []byte { return wire.AppendIDBody(dst, cr.ID) })
	op, _, body = tc.read()
	if op != wire.OpStatusOK {
		t.Fatalf("status answered op %#x: %s", op, body)
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Answered != 2 || st.ID != cr.ID {
		t.Fatalf("status %+v, want 2 answered", st)
	}

	// Delete, then the session is gone for both edges.
	id = tc.send(wire.OpDelete, func(dst []byte) []byte { return wire.AppendIDBody(dst, cr.ID) })
	op, gotID, _ = tc.read()
	if op != wire.OpDeleteOK || gotID != id {
		t.Fatalf("delete answered op %#x", op)
	}
	if _, ok := m.Get(cr.ID); ok {
		t.Fatal("session survived wire delete")
	}
	_, ef = tc.query(cr.ID, "", sureNegativeWire())
	if ef == nil || ef.Code != CodeNotFound {
		t.Fatalf("query after delete: %+v, want %s", ef, CodeNotFound)
	}
}

// TestWireErrorFrames pins the typed error surface: bad ops, duplicate
// hello, oversized batches (HTTP 413 message parity), unknown sessions.
func TestWireErrorFrames(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	ws := NewWireServer(m, WireConfig{MaxBatch: 4})
	addr := startWireServer(t, ws)
	tc := dialWire(t, addr, "", "")

	readError := func() wire.ErrorFrame {
		t.Helper()
		op, _, body := tc.read()
		if op != wire.OpError {
			t.Fatalf("op %#x, want error frame", op)
		}
		var ef wire.ErrorFrame
		if err := wire.DecodeErrorBody(body, &ef); err != nil {
			t.Fatal(err)
		}
		return ef
	}

	tc.send(0x42, nil)
	if ef := readError(); ef.Code != CodeBadRequest || !strings.Contains(ef.Message, "unknown op") {
		t.Fatalf("unknown op: %+v", ef)
	}
	tc.send(wire.OpHello, func(dst []byte) []byte {
		return wire.AppendHelloBody(dst, &wire.Hello{Version: wire.Version})
	})
	if ef := readError(); ef.Code != CodeBadRequest || ef.Message != "duplicate hello" {
		t.Fatalf("duplicate hello: %+v", ef)
	}
	s := mustCreate(t, m, sparseParams())
	_, ef := tc.query(s.ID(), "", make([]wire.QueryItem, 5))
	if ef == nil || ef.Code != CodeTooLarge || ef.Message != "batch of 5 exceeds the cap of 4" {
		t.Fatalf("oversized batch: %+v", ef)
	}
	_, ef = tc.query(s.ID(), "", nil)
	if ef == nil || ef.Code != CodeBadRequest {
		t.Fatalf("empty batch: %+v", ef)
	}
	_, ef = tc.query("nope", "", sureNegativeWire())
	if ef == nil || ef.Code != CodeNotFound {
		t.Fatalf("unknown session: %+v", ef)
	}
}

// TestWireRateLimitedParity: a tenant over budget gets the typed
// rate_limited error frame with the HTTP 429's message and ceil-seconds
// retry hint, from the manager's limiter that guards the HTTP edge too.
func TestWireRateLimitedParity(t *testing.T) {
	m := newTestManager(t, ManagerConfig{RateLimit: RateLimitConfig{Rate: 0.5, Burst: 1}})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m.gate.limiter.now = clk.now
	addr := startWireServer(t, NewWireServer(m, WireConfig{}))
	s := mustCreate(t, m, sparseParams())
	tc := dialWire(t, addr, "acme", "")

	if _, ef := tc.query(s.ID(), "", sureNegativeWire()); ef != nil {
		t.Fatalf("first request within burst rejected: %+v", ef)
	}
	_, ef := tc.query(s.ID(), "", sureNegativeWire())
	if ef == nil || ef.Code != CodeRateLimited {
		t.Fatalf("second request: %+v, want %s", ef, CodeRateLimited)
	}
	if ef.Message != `tenant "acme" exceeded 0.5 requests/sec` {
		t.Fatalf("rate-limit message %q diverges from the HTTP 429", ef.Message)
	}
	if ef.RetryAfterSeconds < 1 {
		t.Fatalf("retry-after %d, want >= 1", ef.RetryAfterSeconds)
	}
	// The connection survives a rejection; budget refills.
	clk.advance(2100 * time.Millisecond)
	if _, ef := tc.query(s.ID(), "", sureNegativeWire()); ef != nil {
		t.Fatalf("request after refill rejected: %+v", ef)
	}
}

// TestWirePipelinedOutOfOrder floods one cold connection with concurrent
// query frames across several sessions before reading anything; every
// response must come back exactly once, matched by request ID, with its
// own correlation echoed. The frames arrive in one or a few reads, so the
// reader serves them in read passes, each frame in its own pooled
// scratch; under -race this also checks that nothing a queued request
// keeps aliases the reused read buffer.
func TestWirePipelinedOutOfOrder(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	ws := NewWireServer(m, WireConfig{})
	addr := startWireServer(t, ws)
	const sessions = 8
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = mustCreate(t, m, sparseParams()).ID()
	}
	tc := dialWire(t, addr, "", "")

	const n = 64
	// One buffered write carrying all frames, so the server's reader sees
	// buffered input and serves it in passes.
	var batch []byte
	sent := make(map[uint64]string, n)
	for i := 0; i < n; i++ {
		tc.next++
		corr := "corr-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		sent[tc.next] = corr
		payload := wire.AppendQueryBody(wire.AppendHeader(nil, wire.OpQuery, tc.next), ids[i%sessions], corr, sureNegativeWire())
		batch = wire.AppendFrame(batch, payload)
	}
	if _, err := tc.c.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op, reqID, body := tc.read()
		if op != wire.OpQueryOK {
			t.Fatalf("response %d: op %#x, body %s", i, op, body)
		}
		corr, ok := sent[reqID]
		if !ok {
			t.Fatalf("response for unknown or duplicate request id %d", reqID)
		}
		delete(sent, reqID)
		var qr wire.QueryResponse
		if err := wire.DecodeQueryOKBody(body, &qr); err != nil {
			t.Fatal(err)
		}
		if string(qr.Corr) != corr {
			t.Fatalf("request %d echoed corr %q, want %q", reqID, qr.Corr, corr)
		}
	}
	if len(sent) != 0 {
		t.Fatalf("%d requests never answered", len(sent))
	}
	for _, id := range ids {
		if got := mustStatus(t, m, id).Answered; got != n/sessions {
			t.Fatalf("session %s answered %d, want %d", id, got, n/sessions)
		}
	}
}

// TestWireJournalBeforeResponse is the wire twin of
// TestGroupCommitJournalBeforeResponse: every response RELEASED over the
// wire must be recoverable from a crash image of the journal directory.
func TestWireJournalBeforeResponse(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ws := NewWireServer(m, WireConfig{})
	addr := startWireServer(t, ws)

	const sessions, per = 8, 50
	ids := make([]string, sessions)
	for i := range ids {
		s, err := m.Create(CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			// Each session gets its own connection; synchronous round trips
			// mean every received response was released by the server.
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			tc := newWireTestConn(t, conn)
			tc.send(wire.OpHello, func(dst []byte) []byte {
				return wire.AppendHelloBody(dst, &wire.Hello{Version: wire.Version})
			})
			tc.read()
			for i := 0; i < per; i++ {
				if _, ef := tc.query(id, "", sureNegativeWire()); ef != nil {
					t.Errorf("query: %+v", ef)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	// The crash image: the journal directory as-is, no shutdown, no snapshot.
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2, st2 := openWALManager(t, crash)
	defer st2.Close()
	for _, id := range ids {
		if got := mustStatus(t, m2, id).Answered; got != per {
			t.Fatalf("session %s: recovered %d answered, want %d (all responses were released)", id, got, per)
		}
	}
}

// TestWireShutdownDrains: Shutdown must let pipelined in-flight requests
// finish and their responses flush before returning, and the progress they
// journaled must be in the final snapshot taken after the drain — the
// svtserve SIGTERM sequence.
func TestWireShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(m, WireConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	s := mustCreate(t, m, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12)})
	tc := dialWire(t, ln.Addr().String(), "", "")

	const n = 16
	var batch []byte
	for i := 0; i < n; i++ {
		tc.next++
		batch = wire.AppendFrame(batch, wire.AppendQueryBody(
			wire.AppendHeader(nil, wire.OpQuery, tc.next), s.ID(), "", sureNegativeWire()))
	}
	if _, err := tc.c.Write(batch); err != nil {
		t.Fatal(err)
	}
	// The first response proves the server has the whole batch buffered
	// (it arrived in one segment); now shut down mid-pipeline.
	tc.read()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	// Every remaining in-flight response must still arrive.
	for i := 1; i < n; i++ {
		if op, _, body := tc.read(); op != wire.OpQueryOK {
			t.Fatalf("drained response %d: op %#x, body %s", i, op, body)
		}
	}

	// The svtserve teardown order: wire drain, then the final snapshot.
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	st.Close()
	m2, st2 := openWALManager(t, dir)
	defer st2.Close()
	if got := mustStatus(t, m2, s.ID()).Answered; got != n {
		t.Fatalf("final snapshot recovered %d answered, want %d", got, n)
	}
}

// TestWireTornConnectionMidPipeline: a client that vanishes with requests
// in flight must leak nothing — the session stays usable, and Shutdown
// still drains promptly. Run with -race to catch lock/state races in the
// teardown path.
func TestWireTornConnectionMidPipeline(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	ws := NewWireServer(m, WireConfig{})
	addr := startWireServer(t, ws)
	s := mustCreate(t, m, sparseParams())

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := newWireTestConn(t, conn)
	tc.send(wire.OpHello, func(dst []byte) []byte {
		return wire.AppendHelloBody(dst, &wire.Hello{Version: wire.Version})
	})
	tc.read()
	var batch []byte
	for i := 0; i < 64; i++ {
		tc.next++
		batch = wire.AppendFrame(batch, wire.AppendQueryBody(
			wire.AppendHeader(nil, wire.OpQuery, tc.next), s.ID(), "", sureNegativeWire()))
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	tc.read()    // at least one request is mid-flight
	conn.Close() // and the client is gone

	// The session's lock must not be held by any orphaned worker: a direct
	// manager query would deadlock if it were.
	done := make(chan error, 1)
	go func() {
		_, err := m.Query(s.ID(), sureNegative())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query after torn connection hung: session lock leaked")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after torn connection: %v", err)
	}
}

// TestWireTelemetryCounters: the wire edge's families move — per-op
// ok/error counters and the connections gauge — in the same registry as
// everything else.
func TestWireTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newTestManager(t, ManagerConfig{})
	ws := NewWireServer(m, WireConfig{Telemetry: reg})
	addr := startWireServer(t, ws)
	s := mustCreate(t, m, sparseParams())
	tc := dialWire(t, addr, "", "")

	if _, ef := tc.query(s.ID(), "", sureNegativeWire()); ef != nil {
		t.Fatalf("query: %+v", ef)
	}
	if _, ef := tc.query("nope", "", sureNegativeWire()); ef == nil {
		t.Fatal("unknown session did not error")
	}
	id := tc.send(wire.OpStatus, func(dst []byte) []byte { return wire.AppendIDBody(dst, s.ID()) })
	if op, gotID, _ := tc.read(); op != wire.OpStatusOK || gotID != id {
		t.Fatalf("status answered op %#x", op)
	}

	out := string(reg.Expose(nil))
	for _, want := range []string{
		`svt_wire_requests_total{op="hello",status="ok"} 1`,
		`svt_wire_requests_total{op="query",status="ok"} 1`,
		`svt_wire_requests_total{op="query",status="error"} 1`,
		`svt_wire_requests_total{op="status",status="ok"} 1`,
		`svt_wire_connections 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// discardConn is a net.Conn whose writes vanish, for measuring the wire
// handler's cost without kernel I/O — the binary twin of
// nullResponseWriter.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// wireQueryAllocs measures the steady-state allocations of one
// single-query request through the wire handler (decode, session, journal,
// encode, frame write) on the inline path.
func wireQueryAllocs(t *testing.T, m *SessionManager, cfg WireConfig) float64 {
	t.Helper()
	ws := NewWireServer(m, cfg)
	s, err := m.Create(CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ws.newConn(discardConn{})
	body := wire.AppendQueryBody(nil, s.ID(), "", []wire.QueryItem{{Query: 1}})
	run := func() {
		if err := c.handleOp(wire.OpQuery, 1, body); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	return testing.AllocsPerRun(200, run)
}

// TestWireQueryHotPathAllocs pins the wire edge's per-request allocation
// budget at 6 — the ISSUE 9 acceptance cap, well under the HTTP path's 10.
func TestWireQueryHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, inflating alloc counts; CI pins this in a non-race pass")
	}
	const budget = 6
	t.Run("mem", func(t *testing.T) {
		m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
		defer m.Close()
		if got := wireQueryAllocs(t, m, WireConfig{}); got > budget {
			t.Fatalf("single-query wire path allocates %.1f/op, budget %d", got, budget)
		}
	})
	t.Run("wal", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if got := wireQueryAllocs(t, m, WireConfig{}); got > budget {
			t.Fatalf("single-query WAL wire path allocates %.1f/op, budget %d", got, budget)
		}
	})
	// Journal deadline and admission gate armed but never firing: the
	// pooled waiter path, the in-flight count and the tenant's bucket must
	// keep the wire edge inside the same 6-alloc pin.
	t.Run("wal+deadline", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m, err := Open(ManagerConfig{
			SweepInterval: time.Hour, SnapshotInterval: -1, Store: st, JournalDeadline: time.Minute,
			MaxInFlight: 1 << 20, RateLimit: RateLimitConfig{Rate: 1e12},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if got := wireQueryAllocs(t, m, WireConfig{}); got > budget {
			t.Fatalf("deadline-armed single-query WAL wire path allocates %.1f/op, budget %d", got, budget)
		}
	})
	t.Run("wal+telemetry+tracer", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		reg := telemetry.NewRegistry()
		tracer := trace.New(trace.Config{SampleEvery: 1 << 30})
		m, err := Open(ManagerConfig{
			SweepInterval: time.Hour, SnapshotInterval: -1,
			Store: st, Telemetry: reg, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		cfg := WireConfig{Telemetry: reg, Tracer: tracer}
		if got := wireQueryAllocs(t, m, cfg); got > budget {
			t.Fatalf("instrumented single-query wire path allocates %.1f/op, budget %d", got, budget)
		}
	})
}

// scriptConn is a net.Conn whose reads replay a fixed byte script — one
// Read delivers up to a whole read buffer of it, so pipelined frames
// arrive as one pass — and whose writes go to w.
type scriptConn struct {
	discardConn
	r *bytes.Reader
	w io.Writer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// passScript is what a client pipelining payloads sends: a hello frame,
// then every payload framed back to back.
func passScript(payloads ...[]byte) []byte {
	script := wire.AppendFrame(nil, wire.AppendHelloBody(
		wire.AppendHeader(nil, wire.OpHello, 0), &wire.Hello{Version: wire.Version}))
	for _, p := range payloads {
		script = wire.AppendFrame(script, p)
	}
	return script
}

// queryPayload is a single-query request for session.
func queryPayload(reqID uint64, session string) []byte {
	return wire.AppendQueryBody(wire.AppendHeader(nil, wire.OpQuery, reqID), session, "", sureNegativeWire())
}

// wireReply is one response frame.
type wireReply struct {
	op   byte
	body []byte
}

// servePass serves one scripted connection on the calling goroutine until
// the script runs out, and returns the responses after the hello's, keyed
// by request ID.
func servePass(t *testing.T, ws *WireServer, script []byte) map[uint64]wireReply {
	t.Helper()
	var out bytes.Buffer
	ws.newConn(&scriptConn{r: bytes.NewReader(script), w: &out}).serve()
	br := bufio.NewReader(&out)
	if _, err := wire.ReadFrame(br, nil, 0); err != nil {
		t.Fatalf("reading the hello response: %v", err)
	}
	replies := make(map[uint64]wireReply)
	for {
		payload, err := wire.ReadFrame(br, nil, 0)
		if errors.Is(err, io.EOF) {
			return replies
		}
		if err != nil {
			t.Fatalf("reading a response: %v", err)
		}
		op, reqID, body, err := wire.ParseHeader(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := replies[reqID]; dup {
			t.Fatalf("request %d answered twice", reqID)
		}
		replies[reqID] = wireReply{op, body}
	}
}

// wantErrorCode fails unless r is an error frame carrying code.
func wantErrorCode(t *testing.T, reqID uint64, r wireReply, code string) wire.ErrorFrame {
	t.Helper()
	var ef wire.ErrorFrame
	if r.op != wire.OpError {
		t.Fatalf("request %d answered op %#x, want a %s error frame", reqID, r.op, code)
	}
	if err := wire.DecodeErrorBody(r.body, &ef); err != nil {
		t.Fatal(err)
	}
	if ef.Code != code {
		t.Fatalf("request %d failed %q (%s), want %q", reqID, ef.Code, ef.Message, code)
	}
	return ef
}

// TestWirePassIsOneTransaction: one read carrying 16 queries over 4
// sessions, a create and a delete is answered with one journal
// transaction, one AppendBatch of all 18 events, and every request gets
// its reply. A client that waits for each reply still journals through
// Append, so fault rules and instrumentation keyed on single appends keep
// covering single requests.
func TestWirePassIsOneTransaction(t *testing.T) {
	mem := store.NewMem()
	sched := fault.NewSchedule(1)
	m, err := Open(ManagerConfig{Store: fault.Wrap(mem, sched), SweepInterval: time.Hour, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = mustCreate(t, m, sparseParams()).ID()
	}
	victim := mustCreate(t, m, sparseParams()).ID()
	ws := NewWireServer(m, WireConfig{})

	var payloads [][]byte
	for i := uint64(1); i <= 16; i++ {
		payloads = append(payloads, queryPayload(i, ids[i%4]))
	}
	params, _ := json.Marshal(sparseParams())
	payloads = append(payloads,
		append(wire.AppendHeader(nil, wire.OpCreate, 17), params...),
		wire.AppendIDBody(wire.AppendHeader(nil, wire.OpDelete, 18), victim))
	appends, batches, events := sched.Calls(fault.OpAppend), sched.Calls(fault.OpAppendBatch), mem.Health().Appends
	replies := servePass(t, ws, passScript(payloads...))
	if len(replies) != 18 {
		t.Fatalf("%d replies, want 18", len(replies))
	}
	for id, r := range replies {
		want := wire.OpQueryOK
		switch id {
		case 17:
			want = wire.OpCreateOK
		case 18:
			want = wire.OpDeleteOK
		}
		if r.op != want {
			t.Fatalf("request %d answered op %#x (%s), want %#x", id, r.op, r.body, want)
		}
	}
	if got := sched.Calls(fault.OpAppend) - appends; got != 0 {
		t.Fatalf("the pass made %d Append calls, want 0", got)
	}
	if got := sched.Calls(fault.OpAppendBatch) - batches; got != 1 {
		t.Fatalf("the pass made %d AppendBatch calls, want 1", got)
	}
	if got := mem.Health().Appends - events; got != 18 {
		t.Fatalf("the pass journaled %d events, want 18", got)
	}

	// A pass of one: the sequential client's path.
	appends, batches = sched.Calls(fault.OpAppend), sched.Calls(fault.OpAppendBatch)
	if r := servePass(t, ws, passScript(queryPayload(1, ids[0])))[1]; r.op != wire.OpQueryOK {
		t.Fatalf("sequential query answered op %#x: %s", r.op, r.body)
	}
	if got := sched.Calls(fault.OpAppend) - appends; got != 1 {
		t.Fatalf("a sequential query made %d Append calls, want 1", got)
	}
	if got := sched.Calls(fault.OpAppendBatch) - batches; got != 0 {
		t.Fatalf("a sequential query made %d AppendBatch calls, want 0", got)
	}
}

// TestWireFailedPass: a pass whose one journal append fails or times out
// withholds every answer it carried and rolls back its create; the
// delete still reports done, since Delete tolerates a lost event.
func TestWireFailedPass(t *testing.T) {
	// failedPass sends 8 queries over the sessions, a create and a delete
	// of victim in one read, and checks the replies.
	failedPass := func(t *testing.T, m *SessionManager, sessions []string, victim, code string) {
		t.Helper()
		var payloads [][]byte
		for i := uint64(1); i <= 8; i++ {
			payloads = append(payloads, queryPayload(i, sessions[i%uint64(len(sessions))]))
		}
		params, _ := json.Marshal(sparseParams())
		payloads = append(payloads,
			append(wire.AppendHeader(nil, wire.OpCreate, 9), params...),
			wire.AppendIDBody(wire.AppendHeader(nil, wire.OpDelete, 10), victim))
		live, created := m.Len(), m.Stats().Created
		replies := servePass(t, NewWireServer(m, WireConfig{}), passScript(payloads...))
		if len(replies) != 10 {
			t.Fatalf("%d replies, want 10", len(replies))
		}
		for id := uint64(1); id <= 9; id++ {
			if ef := wantErrorCode(t, id, replies[id], code); ef.RetryAfterSeconds == 0 {
				t.Fatalf("request %d: no retry hint on %+v", id, ef)
			}
		}
		if r := replies[10]; r.op != wire.OpDeleteOK {
			t.Fatalf("delete answered op %#x (%s), want done", r.op, r.body)
		}
		// The delete took one session; the rolled-back create left none.
		if got := m.Len(); got != live-1 {
			t.Fatalf("Len = %d after the pass, want %d", got, live-1)
		}
		if got := m.Stats().Created; got != created {
			t.Fatalf("Created = %d after the pass, want %d: the create was not rolled back", got, created)
		}
	}

	t.Run("store_failure", func(t *testing.T) {
		dir := t.TempDir()
		wal, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpAppendBatch, Count: 1, Err: fault.ErrInjected})
		m, err := Open(ManagerConfig{Store: fault.Wrap(wal, sched), SweepInterval: time.Hour, SnapshotInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 4)
		for i := range ids {
			ids[i] = mustCreate(t, m, sparseParams()).ID()
			mustQuery(t, m, ids[i], sureNegative())
		}
		victim := mustCreate(t, m, sparseParams()).ID()
		failedPass(t, m, ids, victim, CodeStoreFailure)
		m.Close()
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}

		m2, wal2 := openWALManager(t, dir)
		defer wal2.Close()
		if got := m2.Len(); got != 5 {
			t.Fatalf("recovered %d sessions, want the 4 queried plus the deleted one (its delete event was lost)", got)
		}
		for _, id := range ids {
			if got := mustStatus(t, m2, id).Answered; got != 1 {
				t.Fatalf("session %s recovered %d answered, want 1: none of the failed pass's progress", id, got)
			}
		}
	})

	t.Run("deadline", func(t *testing.T) {
		sched := fault.NewSchedule(42, fault.Rule{Op: fault.OpAppendBatch, Count: 1, Stall: true})
		const deadline = 50 * time.Millisecond
		m := openFaultManager(t, sched, ManagerConfig{JournalDeadline: deadline})
		ids := make([]string, 4)
		for i := range ids {
			ids[i] = mustCreate(t, m, sparseParams()).ID()
		}
		victim := mustCreate(t, m, sparseParams()).ID()
		start := time.Now()
		failedPass(t, m, ids, victim, CodeUnavailable)
		if el := time.Since(start); el < deadline || el > 2*time.Second {
			t.Fatalf("the pass failed after %v, want about one %v deadline", el, deadline)
		}
		if got := sched.Calls(fault.OpAppendBatch); got != 1 {
			t.Fatalf("%d AppendBatch calls, want the pass's one", got)
		}
		// The 8 queries and the create were withheld; the delete was not.
		if got := m.deadlineExceeded.Load(); got != 9 {
			t.Fatalf("deadlineExceeded = %d, want 9 withheld requests", got)
		}
	})
}

// TestWirePassAllocs pins the pipelined path interactive-wire takes: one
// connection served through serve, whose reads deliver a hello plus
// pipelined query frames over 16 sessions, journaled on a Mem store. The
// per-query cost is the difference between serving 2N and N frames, over
// N, so the connection's fixed cost cancels. The allocations left are the
// session ID string and the minted request ID.
func TestWirePassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, inflating alloc counts; CI pins this in a non-race pass")
	}
	const budget = 3
	m, err := Open(ManagerConfig{Store: store.NewMem(), SweepInterval: time.Hour, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = mustCreate(t, m, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12)}).ID()
	}
	ws := NewWireServer(m, WireConfig{})
	script := func(n int) []byte {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = queryPayload(uint64(i+1), ids[i%len(ids)])
		}
		return passScript(payloads...)
	}
	allocs := func(script []byte) float64 {
		serve := func() {
			ws.newConn(&scriptConn{r: bytes.NewReader(script), w: io.Discard}).serve()
		}
		serve() // warm the pools
		return testing.AllocsPerRun(50, serve)
	}
	const n = 100
	if got := (allocs(script(2*n)) - allocs(script(n))) / n; got > budget {
		t.Fatalf("a pipelined query allocates %.2f/op, budget %d", got, budget)
	}
}
