package client_test

// SDK tests run against a real WireServer on a loopback listener: the
// full client path — dial, handshake, registry-driven validation,
// pipelined round trips, typed error mapping — against the same serving
// stack svtserve runs. The client package imports only wire, so pulling
// the server in here creates no cycle.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/internal/fault"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/wire"
)

// startServer runs a WireServer for an in-memory manager on an ephemeral
// loopback port and tears both down with the test.
func startServer(t testing.TB, cfg server.WireConfig) (string, *server.WireServer) {
	t.Helper()
	m := server.NewSessionManager(server.ManagerConfig{})
	t.Cleanup(m.Close)
	return serveManager(t, m, cfg)
}

// serveManager runs a WireServer for m on an ephemeral loopback port and
// tears it down with the test.
func serveManager(t testing.TB, m *server.SessionManager, cfg server.WireConfig) (string, *server.WireServer) {
	t.Helper()
	ws := server.NewWireServer(m, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	})
	return ln.Addr().String(), ws
}

func dial(t testing.TB, addr string, opts client.Options) *client.Client {
	t.Helper()
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sparseParams() client.CreateParams {
	return client.CreateParams{Mechanism: "sparse", Epsilon: 1, MaxPositives: 4}
}

// neverHalting is a sparse session whose threshold sits far above every
// query this file sends, so every answer is ⊥ and it never halts.
func neverHalting() client.CreateParams {
	return client.CreateParams{Mechanism: "sparse", Epsilon: 1, MaxPositives: 1 << 30, Threshold: client.Float(1e12)}
}

func TestClientEndToEnd(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{Tenant: "acme"})

	if c.ServerMaxBatch() <= 0 || c.ServerMaxFrame() <= 0 {
		t.Fatalf("handshake caps not announced: batch=%d frame=%d", c.ServerMaxBatch(), c.ServerMaxFrame())
	}

	mechs, err := c.Mechanisms()
	if err != nil {
		t.Fatalf("Mechanisms: %v", err)
	}
	byName := make(map[string]client.MechanismInfo, len(mechs))
	for _, mi := range mechs {
		byName[mi.Name] = mi
	}
	if !byName["sparse"].MonotonicRefinement || !byName["pmw"].NeedsHistogram {
		t.Fatalf("capability flags not carried through: %+v", byName)
	}

	sess, err := c.Create(sparseParams())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if sess.ID == "" || sess.Mechanism != "sparse" || sess.TTLSeconds <= 0 {
		t.Fatalf("bad create response: %+v", sess)
	}

	// A sure-negative query (threshold far above the answer) must come
	// back below, with the ID the server minted resolvable on the result.
	res, err := c.Query(sess.ID, []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Results) != 1 || res.Results[0].Above {
		t.Fatalf("sure-negative query came back wrong: %+v", res)
	}
	if res.RequestID == "" {
		t.Fatal("server minted no request ID")
	}

	// A caller-chosen correlation ID is echoed back verbatim.
	res, err = c.QueryID(sess.ID, "corr-42", []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
	if err != nil {
		t.Fatalf("QueryID: %v", err)
	}
	if res.RequestID != "corr-42" {
		t.Fatalf("RequestID = %q, want echo of corr-42", res.RequestID)
	}

	st, err := c.Status(sess.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Answered != 2 || st.Halted {
		t.Fatalf("status after 2 queries: %+v", st)
	}

	if err := c.Delete(sess.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	_, err = c.Status(sess.ID)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Fatalf("Status after delete = %v, want APIError not_found", err)
	}
}

// TestClientValidation exercises the registry-driven pre-flight: every
// one of these is refused locally, from the cached capability table,
// without spending a round trip on a request the server must reject.
func TestClientValidation(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})

	cases := []struct {
		name   string
		params client.CreateParams
		want   string
	}{
		{
			name:   "unknown mechanism lists offerings",
			params: client.CreateParams{Mechanism: "nope", Epsilon: 1, MaxPositives: 1},
			want:   "server offers",
		},
		{
			name: "histogram on a non-histogram mechanism",
			params: client.CreateParams{
				Mechanism: "sparse", Epsilon: 1, MaxPositives: 1, Histogram: []float64{1, 2},
			},
			want: "does not take a histogram",
		},
		{
			name:   "pmw without its histogram",
			params: client.CreateParams{Mechanism: "pmw", Epsilon: 1, MaxPositives: 1},
			want:   "requires a histogram",
		},
		{
			name: "monotonic on a variant without the refinement",
			params: client.CreateParams{
				Mechanism: "dpbook", Epsilon: 1, MaxPositives: 1, Monotonic: true,
			},
			want: "does not support the monotonic refinement",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Create(tc.params)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Create = %v, want error containing %q", err, tc.want)
			}
			var ae *client.APIError
			if errors.As(err, &ae) {
				t.Fatalf("validation error %v reached the server", err)
			}
		})
	}
}

// TestClientCacheSizeRefusedByServer: the SDK does not check CacheSize
// itself. The server refuses it, and Create returns that refusal as an
// *APIError with code bad_request, which shows the request reached the
// server, and no session is created.
func TestClientCacheSizeRefusedByServer(t *testing.T) {
	m := server.NewSessionManager(server.ManagerConfig{})
	t.Cleanup(m.Close)
	addr, _ := serveManager(t, m, server.WireConfig{})
	c := dial(t, addr, client.Options{})
	_, err := c.Create(client.CreateParams{Mechanism: "sparse", Epsilon: 1, MaxPositives: 4, CacheSize: 8})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "bad_request" || !strings.Contains(ae.Message, "no finite ε") {
		t.Fatalf("Create with CacheSize = %v, want the server's bad_request with its reason", err)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("refused create left %d live sessions", n)
	}
}

func TestClientRateLimited(t *testing.T) {
	m := server.NewSessionManager(server.ManagerConfig{RateLimit: server.RateLimitConfig{Rate: 0.5, Burst: 1}})
	t.Cleanup(m.Close)
	addr, _ := serveManager(t, m, server.WireConfig{})

	c := dial(t, addr, client.Options{Tenant: "acme"})
	// The burst admits exactly one request; the next is limited with a
	// retry hint derived from the refill rate.
	if _, err := c.Mechanisms(); err != nil {
		t.Fatalf("first request: %v", err)
	}
	_, err := c.Status("whatever")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "rate_limited" {
		t.Fatalf("second request = %v, want APIError rate_limited", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("rate_limited RetryAfter = %v, want > 0", ae.RetryAfter)
	}
}

// TestClientConcurrentPipelined shares one Client across goroutines: all
// their requests pipeline on the single connection and every response
// must find its way back to the caller that sent it.
func TestClientConcurrentPipelined(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})

	sess, err := c.Create(sparseParams())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := c.Query(sess.ID, []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Results) != 1 {
					errs <- errors.New("wrong result count")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query: %v", err)
	}
	st, err := c.Status(sess.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Answered != goroutines*perG {
		t.Fatalf("Answered = %d, want %d", st.Answered, goroutines*perG)
	}
}

func TestClientBatchCapPrecheck(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{MaxBatch: 4})
	c := dial(t, addr, client.Options{})
	if got := c.ServerMaxBatch(); got != 4 {
		t.Fatalf("ServerMaxBatch = %d, want 4", got)
	}
	sess, err := c.Create(sparseParams())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	items := make([]client.QueryItem, 5)
	_, err = c.Query(sess.ID, items)
	if err == nil || !strings.Contains(err.Error(), "exceeds the server cap") {
		t.Fatalf("over-cap batch = %v, want local cap error", err)
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		t.Fatalf("cap error %v reached the server", err)
	}
}

func TestClientClose(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})
	if _, err := c.Mechanisms(); err != nil {
		t.Fatalf("Mechanisms: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Status("x"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Status after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClientCloseRacesInFlight closes the client while goroutines have
// queries in flight: every pending call must fail fast with the typed
// ErrClosed — not deadlock, not ErrAmbiguous, and never trigger a
// reconnect. Run under -race in CI.
func TestClientCloseRacesInFlight(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})

	sess, err := c.Create(sparseParams())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				_, err := c.Query(sess.ID, []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, client.ErrClosed) {
			t.Fatalf("in-flight query after Close = %v, want ErrClosed", err)
		}
	}
	if st := c.Stats(); st.Reconnects != 0 {
		t.Fatalf("Reconnects after Close = %d, want 0", st.Reconnects)
	}
}

// fakeWireServer speaks just enough of the protocol to script failure
// modes the real server won't produce on demand: handle returns the
// response payload for a request, or nil to drop the connection right
// there. The hello handshake is answered automatically. conn is the
// 0-based accept ordinal, so scripts can behave differently across
// reconnects.
func fakeWireServer(t *testing.T, handle func(conn int, op byte, id uint64, body []byte) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for connNo := 0; ; connNo++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, connNo int) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				for {
					payload, err := wire.ReadFrame(br, nil, 1<<20)
					if err != nil {
						return
					}
					op, id, body, err := wire.ParseHeader(payload)
					if err != nil {
						return
					}
					if op == wire.OpHello {
						resp := wire.AppendHelloOKBody(wire.AppendHeader(nil, wire.OpHelloOK, id),
							&wire.HelloOK{Version: wire.Version, MaxFrame: 1 << 20, MaxBatch: 64})
						if wire.WriteFrame(bw, resp) != nil || bw.Flush() != nil {
							return
						}
						continue
					}
					resp := handle(connNo, op, id, body)
					if resp == nil {
						return
					}
					if wire.WriteFrame(bw, resp) != nil || bw.Flush() != nil {
						return
					}
				}
			}(conn, connNo)
		}
	}()
	return ln.Addr().String()
}

// TestClientRetriesUnavailable: a typed "unavailable" error is retried
// automatically within the policy, honoring the (zero) retry hint.
func TestClientRetriesUnavailable(t *testing.T) {
	var calls atomic.Uint64
	addr := fakeWireServer(t, func(_ int, op byte, id uint64, _ []byte) []byte {
		if calls.Add(1) == 1 {
			return wire.AppendErrorBody(wire.AppendHeader(nil, wire.OpError, id),
				&wire.ErrorFrame{Code: "unavailable", Message: "shedding"})
		}
		return append(wire.AppendHeader(nil, wire.OpStatusOK, id), []byte(`{}`)...)
	})
	c := dial(t, addr, client.Options{
		Retry: &client.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	if _, err := c.Status("s"); err != nil {
		t.Fatalf("Status = %v, want retried success", err)
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

// TestClientOversizedRetryHint: a retry hint too long for a
// time.Duration saturates rather than wraps. In nanoseconds, 18,446,744,074
// s wraps to about 290 ms and 2⁶³ s to 0, and each would read as a short
// wait worth retrying. Saturated, each exceeds MaxRetryAfter, so the error
// reaches the caller with no retry.
func TestClientOversizedRetryHint(t *testing.T) {
	for _, secs := range []uint64{18_446_744_074, 1 << 63} {
		addr := fakeWireServer(t, func(_ int, _ byte, id uint64, _ []byte) []byte {
			return wire.AppendErrorBody(wire.AppendHeader(nil, wire.OpError, id),
				&wire.ErrorFrame{Code: "unavailable", Message: "shedding", RetryAfterSeconds: secs})
		})
		c := dial(t, addr, client.Options{})
		_, err := c.Query("s", []client.QueryItem{{Query: 0}})
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != "unavailable" {
			t.Fatalf("hint of %d s: Query = %v, want the APIError unavailable", secs, err)
		}
		if ae.RetryAfter <= client.DefaultRetryPolicy().MaxRetryAfter {
			t.Fatalf("hint of %d s: RetryAfter = %v, want above MaxRetryAfter", secs, ae.RetryAfter)
		}
		if st := c.Stats(); st.Retries != 0 {
			t.Fatalf("hint of %d s: Retries = %d, want 0", secs, st.Retries)
		}
	}
}

// TestClientReconnectRetriesIdempotent: the connection dies after a
// read-only request was delivered; the client must redial and retry it.
func TestClientReconnectRetriesIdempotent(t *testing.T) {
	addr := fakeWireServer(t, func(conn int, op byte, id uint64, _ []byte) []byte {
		if conn == 0 {
			return nil // read the request, then drop the connection
		}
		return append(wire.AppendHeader(nil, wire.OpStatusOK, id), []byte(`{}`)...)
	})
	c := dial(t, addr, client.Options{
		Retry: &client.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	if _, err := c.Status("s"); err != nil {
		t.Fatalf("Status = %v, want reconnect + retried success", err)
	}
	st := c.Stats()
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if st.Retries == 0 {
		t.Fatalf("Retries = 0, want > 0")
	}
}

// TestClientAmbiguousQuery: a budget-mutating query whose frame was
// delivered but never answered must fail with ErrAmbiguous and must NOT
// be retried — the server may have spent budget answering it.
func TestClientAmbiguousQuery(t *testing.T) {
	var queries atomic.Uint64
	addr := fakeWireServer(t, func(_ int, op byte, id uint64, _ []byte) []byte {
		if op == wire.OpQuery {
			queries.Add(1)
			return nil // request delivered, connection dies before the response
		}
		return append(wire.AppendHeader(nil, wire.OpStatusOK, id), []byte(`{}`)...)
	})
	c := dial(t, addr, client.Options{
		Retry: &client.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	_, err := c.Query("s", []client.QueryItem{{Query: 0, Threshold: client.Float(1)}})
	if !errors.Is(err, client.ErrAmbiguous) {
		t.Fatalf("Query = %v, want ErrAmbiguous", err)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("server saw %d queries, want exactly 1 (no blind retry)", n)
	}
	if st := c.Stats(); st.Ambiguous != 1 {
		t.Fatalf("Ambiguous = %d, want 1", st.Ambiguous)
	}
}

// TestClientMechanismsOrder: the registry comes back in the server's
// order on every call, both from Mechanisms and in the unknown-mechanism
// error's list of offerings.
func TestClientMechanismsOrder(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})
	m := server.NewSessionManager(server.ManagerConfig{})
	t.Cleanup(m.Close)
	var want []string
	for _, mi := range m.Mechanisms() {
		want = append(want, mi.Name)
	}
	offers := "server offers " + strings.Join(want, ", ")
	for i := 0; i < 20; i++ {
		mechs, err := c.Mechanisms()
		if err != nil {
			t.Fatalf("Mechanisms: %v", err)
		}
		got := make([]string, len(mechs))
		for j, mi := range mechs {
			got[j] = mi.Name
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: Mechanisms order %v, want the server's %v", i, got, want)
		}
		_, err = c.Create(client.CreateParams{Mechanism: "nope", Epsilon: 1, MaxPositives: 1})
		if err == nil || !strings.Contains(err.Error(), offers) {
			t.Fatalf("call %d: Create(unknown) = %v, want it to say %q", i, err, offers)
		}
	}
}

// TestClientClosesSocketOnCorruptFrame: an epoch that fails — here on a
// corrupt (empty) frame from the server — closes its socket, so the
// server sees the hang-up rather than a socket left open until the GC
// finalises it.
func TestClientClosesSocketOnCorruptFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	hangup := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			hangup <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		payload, err := wire.ReadFrame(br, nil, 1<<20)
		if err != nil {
			hangup <- err
			return
		}
		_, id, _, err := wire.ParseHeader(payload)
		if err != nil {
			hangup <- err
			return
		}
		// bufio's write errors are sticky: Flush reports a failed WriteFrame.
		bw := bufio.NewWriter(conn)
		wire.WriteFrame(bw, wire.AppendHelloOKBody(wire.AppendHeader(nil, wire.OpHelloOK, id),
			&wire.HelloOK{Version: wire.Version, MaxFrame: 1 << 20, MaxBatch: 64}))
		wire.WriteFrame(bw, nil) // an empty payload has no op: a corrupt frame
		if err := bw.Flush(); err != nil {
			hangup <- err
			return
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err = br.ReadByte()
		hangup <- err
	}()
	dial(t, ln.Addr().String(), client.Options{})
	if err := <-hangup; !errors.Is(err, io.EOF) {
		t.Fatalf("server read after sending a corrupt frame = %v, want io.EOF from the client closing its socket", err)
	}
}

// countingConn counts the Write calls made on a client connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestClientCoalescesConcurrentWrites: concurrent callers on one Client
// share Writes — each burst of calls leaves in one syscall, not one per
// call.
func TestClientCoalescesConcurrentWrites(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	var writes atomic.Int64
	c := dial(t, addr, client.Options{Dialer: func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, writes: &writes}, nil
	}})
	sess, err := c.Create(neverHalting())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const goroutines, perG = 16, 200
	before := writes.Load()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := c.Query(sess.ID, []client.QueryItem{{Query: 0}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query: %v", err)
	}
	if n := writes.Load() - before; n >= goroutines*perG {
		t.Fatalf("%d pipelined queries took %d Writes, want fewer Writes than queries", goroutines*perG, n)
	}
}

// tearConn tears the first Write that carries more than one frame: it
// forwards the first frame and 3 bytes of the next, then closes the
// socket and fails the Write, as a connection that dies mid-burst does.
// whole counts the query frames it delivered complete, up to and
// including the tear's first frame.
type tearConn struct {
	net.Conn
	torn  *atomic.Bool
	whole *atomic.Int64
}

func (c tearConn) Write(p []byte) (int, error) {
	if c.torn.Load() {
		return c.Conn.Write(p)
	}
	// Until the tear, every Write starts with a whole frame.
	size, k := binary.Uvarint(p)
	if p[k] == wire.OpQuery {
		c.whole.Add(1)
	}
	if first := k + int(size); len(p) > first {
		c.torn.Store(true)
		n, _ := c.Conn.Write(p[:first+3])
		c.Conn.Close()
		return n, errors.New("torn mid-burst")
	}
	return c.Conn.Write(p)
}

// TestClientTornBurstBudgetExact: 16 queries coalesce into one Write,
// which the connection tears one frame and 3 bytes in. Only calls whose
// frames reached the server whole may come back ambiguous — just the
// first, unless the scheduler split the burst and an earlier one-frame
// Write went unanswered; the rest must be retried. Whatever the server
// did with the delivered frames, its answered count lies between the
// acked calls and the acked plus ambiguous ones: no retry spent budget
// twice.
func TestClientTornBurstBudgetExact(t *testing.T) {
	// One P: the leader's yield runs every released caller, so all of
	// them buffer their frames behind it before the flush.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addr, _ := startServer(t, server.WireConfig{})
	sess, err := dial(t, addr, client.Options{}).Create(neverHalting())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var torn atomic.Bool
	var whole atomic.Int64
	c := dial(t, addr, client.Options{
		Retry: &client.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
		Dialer: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return tearConn{Conn: conn, torn: &torn, whole: &whole}, nil
		},
	})

	const callers = 16
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[g] = c.Query(sess.ID, []client.QueryItem{{Query: 0}})
		}()
	}
	close(start)
	wg.Wait()
	if !torn.Load() {
		t.Fatal("no Write carried more than one frame, so the tear never fired")
	}
	acked, ambiguous := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			acked++
		case errors.Is(err, client.ErrAmbiguous):
			ambiguous++
		default:
			t.Fatalf("Query = %v, want success or ErrAmbiguous", err)
		}
	}
	if n := whole.Load(); int64(ambiguous) > n {
		t.Fatalf("%d ambiguous calls, but only %d query frames reached the server whole", ambiguous, n)
	}
	st, err := c.Status(sess.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Answered < acked || st.Answered > acked+ambiguous {
		t.Fatalf("Answered = %d, want between %d acked and %d acked+ambiguous: a retried call spent budget twice", st.Answered, acked, acked+ambiguous)
	}
}

// TestClientRoutesResponsesUnderTears: goroutines sharing one Client tag
// every query with their own correlation ID while a seeded schedule tears
// the connection's writes and reads mid-burst, again and again. Every
// response must reach only the call that sent it: a success carries its
// own request ID and one result per query it asked, and a failure is
// ErrAmbiguous. The server's answered count shows that no retry spent
// budget twice.
func TestClientRoutesResponsesUnderTears(t *testing.T) {
	addr, _ := startServer(t, server.WireConfig{})
	sess, err := dial(t, addr, client.Options{}).Create(neverHalting())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Past the first handshake, a Write tears inside its first frame or a
	// few frames in, and a Read inside its first or second response.
	sched := fault.NewSchedule(27,
		fault.Rule{Op: fault.OpWrite, After: 1, Prob: 0.02, Tear: true, TearAfter: 5},
		fault.Rule{Op: fault.OpWrite, After: 1, Prob: 0.1, Tear: true, TearAfter: 400},
		fault.Rule{Op: fault.OpRead, After: 1, Prob: 0.1, Tear: true, TearAfter: 30},
	)
	c := dial(t, addr, client.Options{
		// Enough attempts that a call fails only as ambiguous: a torn
		// handshake or an unsent frame is always retried.
		Retry: &client.RetryPolicy{MaxAttempts: 1 << 20, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond},
		Dialer: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return fault.WrapConn(conn, sched), nil
		},
	})

	const goroutines, perG = 64, 200
	var acked, ambiguous atomic.Int64 // queries, summed over calls
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				corr := fmt.Sprintf("g%d-q%d", g, i)
				items := make([]client.QueryItem, 1+(g+i)%3)
				res, err := c.QueryID(sess.ID, corr, items)
				switch {
				case err == nil:
					if res.RequestID != corr || len(res.Results) != len(items) {
						t.Errorf("call %s got a response for %q with %d results, want its own with %d", corr, res.RequestID, len(res.Results), len(items))
						return
					}
					acked.Add(int64(len(items)))
				case errors.Is(err, client.ErrAmbiguous):
					ambiguous.Add(int64(len(items)))
				default:
					t.Errorf("call %s = %v, want success or ErrAmbiguous", corr, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if w, r := sched.Injected(fault.OpWrite), sched.Injected(fault.OpRead); w == 0 || r == 0 {
		t.Fatalf("tears fired on %d writes and %d reads, want both", w, r)
	}
	st, err := dial(t, addr, client.Options{}).Status(sess.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	lo, hi := acked.Load(), acked.Load()+ambiguous.Load()
	if n := int64(st.Answered); n < lo || n > hi {
		t.Fatalf("Answered = %d, want between %d acked and %d acked+ambiguous queries", n, lo, hi)
	}
	t.Logf("%d reconnects; %d queries acked, %d ambiguous", c.Stats().Reconnects, lo, ambiguous.Load())
}
