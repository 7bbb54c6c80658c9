// Package client is the Go SDK for the SVT service's binary wire
// protocol (svtserve -wire-addr). One Client owns one connection;
// concurrent calls pipeline their requests on it and responses are
// matched back by request ID, so a pool of goroutines sharing a Client
// keeps the connection's pipeline full. Concurrent calls also share one
// write per burst: the first caller to buffer a frame yields once so the
// callers behind it can buffer theirs, then flushes them all in one
// Write.
//
// A Query takes the client's mutex twice (for the server's batch cap and
// the live connection), the connection's mutex once to register its
// request ID, and the write mutex once, or twice when it leads a flush.
// The response reader takes the connection's mutex once per response.
// Each call's wake channel and request and response buffers come from a
// pool, so a steady-state Query allocates only what it returns: the
// *BatchResult, its Results and its RequestID.
//
// The SDK is registry-driven: it fetches GET /v1/mechanisms' capability
// flags over the wire (OpMechanisms) and validates CreateParams against
// them — seed vs seedable, histogram vs needsHistogram, monotonic vs
// monotonicRefinement — so a mechanism added to the server ships in the
// client with no SDK change, and impossible requests fail before
// spending a round trip.
//
//	c, err := client.Dial("localhost:9090", client.Options{Tenant: "acme"})
//	...
//	sess, err := c.Create(client.CreateParams{
//		Mechanism: "sparse", Epsilon: 1, MaxPositives: 8,
//	})
//	...
//	res, err := c.Query(sess.ID, []client.QueryItem{{Query: 41, Threshold: client.Float(40)}})
//
// # Self-healing
//
// The client reconnects automatically: when the connection dies it
// re-dials with exponential backoff plus jitter, and retries calls that
// are provably safe to retry — those that failed with a typed retryable
// server error ("unavailable", and "rate_limited" when opted in, both
// honoring the server's RetryAfter hint) and those whose request
// provably never reached the server. Because one Write may carry many
// callers' frames, that proof is a byte offset: each call notes where
// its frame ends in the connection's byte stream, and the frame never
// reached the server iff, once the connection died, the kernel had
// accepted fewer bytes than that. A budget-mutating call (Create,
// Query, Delete) whose frame WAS delivered but whose response never
// came back is genuinely ambiguous — the server may have answered and
// spent budget — so it fails with ErrAmbiguous instead of retrying;
// re-issuing such a query blindly could spend privacy budget twice.
// Read-only calls (Status, Mechanisms) are idempotent and retry through
// every failure mode. Tune or disable all of this with Options.Retry.
package client

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/wire"
)

// Float returns a pointer to v: threshold literals in QueryItem and
// CreateParams are pointers so an explicit 0 is distinguishable from
// "absent".
func Float(v float64) *float64 { return &v }

// Options configures Dial.
type Options struct {
	// Tenant identifies the caller for rate limiting and budget
	// attribution; carried once in the hello handshake.
	Tenant string
	// Traceparent, when set to a W3C traceparent, seeds trace correlation
	// for every query on the connection (the server samples them all).
	Traceparent string
	// DialTimeout bounds the TCP connect + handshake; 0 means no limit.
	// Applied to reconnects too.
	DialTimeout time.Duration
	// MaxFrameBytes caps inbound response frames; 0 means the wire
	// default (1 MiB).
	MaxFrameBytes int
	// Retry is the reconnect-and-retry policy; nil means
	// DefaultRetryPolicy(). To disable retries entirely use
	// &RetryPolicy{MaxAttempts: 1}.
	Retry *RetryPolicy
	// Dialer, when set, replaces the default TCP dial — how tests (and
	// the chaos suite) interpose fault-injecting connections. It is
	// called for the initial connection and every reconnect.
	Dialer func(addr string) (net.Conn, error)
}

// RetryPolicy bounds the client's self-healing. The zero value of each
// field means its DefaultRetryPolicy value, so partial literals work.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per call, first try included.
	// 0 means the default (4); 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt (with equal jitter: half fixed, half random) up to
	// MaxBackoff. 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth. 0 means 2s.
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long a server Retry-After hint may make the
	// client sleep; a hint above the cap surfaces the error to the
	// caller instead. 0 means 5s.
	MaxRetryAfter time.Duration
	// RetryRateLimited also auto-retries "rate_limited" errors, honoring
	// their RetryAfter. Off by default: rate-limit pushback is usually
	// something the application wants to observe, not absorb.
	RetryRateLimited bool
}

// DefaultRetryPolicy is the policy Dial uses when Options.Retry is nil.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   4,
		BaseBackoff:   50 * time.Millisecond,
		MaxBackoff:    2 * time.Second,
		MaxRetryAfter: 5 * time.Second,
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = d.MaxRetryAfter
	}
	return p
}

// APIError is a typed error frame from the server: the HTTP API's stable
// code vocabulary (bad_request, not_found, too_large, too_many_sessions,
// store_failure, rate_limited, unavailable) plus a retry hint.
// "unavailable" (journal deadline exceeded or load shedding) and
// "rate_limited" are the retryable codes; both carry RetryAfter. The
// client auto-retries "unavailable" within its RetryPolicy, and
// "rate_limited" only when RetryPolicy.RetryRateLimited is set.
type APIError struct {
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return e.Code + ": " + e.Message + " (retry after " + e.RetryAfter.String() + ")"
	}
	return e.Code + ": " + e.Message
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: connection closed")

// ErrAmbiguous marks a budget-mutating call (Create, Query, Delete)
// whose request was delivered but whose response never arrived: the
// server may or may not have executed it, so the client refuses to
// retry — a blind re-issue of a query could spend (ε₁,ε₂,ε₃) budget
// twice. The caller decides: Status shows the session's answered count
// and remaining budget, which disambiguates whether the call landed.
var ErrAmbiguous = errors.New("client: request outcome unknown (connection lost after send)")

// Stats is a snapshot of the client's self-healing counters.
type Stats struct {
	// Reconnects counts successful re-dials after the initial connection.
	Reconnects uint64
	// DialFailures counts failed reconnect attempts.
	DialFailures uint64
	// Retries counts retry attempts across all calls (every attempt
	// after a call's first).
	Retries uint64
	// Ambiguous counts calls that failed with ErrAmbiguous.
	Ambiguous uint64
}

// Client is one wire-protocol connection (re-dialed transparently when
// it breaks). Safe for concurrent use; concurrent calls pipeline.
type Client struct {
	addr     string
	opts     Options
	policy   RetryPolicy
	maxFrame int

	nextID atomic.Uint64

	mu     sync.Mutex
	cc     *clientConn // live connection epoch; nil after it broke
	hello  wire.HelloOK
	closed bool
	// closedCh interrupts backoff sleeps when the client is closed.
	closedCh chan struct{}
	// dialMu serializes reconnect attempts without blocking Close.
	dialMu sync.Mutex

	reconnects   atomic.Uint64
	dialFailures atomic.Uint64
	retries      atomic.Uint64
	ambiguous    atomic.Uint64

	mechMu sync.Mutex
	mechs  []MechanismInfo // in the server's order
}

// clientConn is one connection epoch: socket, buffers, pending map and
// the first fatal error. A broken epoch is abandoned wholesale and the
// Client dials a fresh one.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader

	// wmu guards the write side: bw, the byte count under it and
	// flushing, which is set while a caller leads a pending flush.
	wmu      sync.Mutex
	bw       *bufio.Writer
	out      countingWriter
	flushing bool

	hello wire.HelloOK

	mu      sync.Mutex
	pending map[uint64]*callState
	err     error
	done    chan struct{}
}

// callState is one call's pooled state, reused by its retries and then by
// later calls. The reader takes it out of pending, copies the response
// into it and sends on wake. So the call owns it again once it has
// received the wake, or has itself removed it from pending: only then may
// the call retry, return or recycle it.
type callState struct {
	// wake has one slot, so the reader's send never blocks.
	wake chan struct{}
	// body is the request body, encoded once per call; req is one
	// attempt's payload: the header for its request ID, then body.
	body []byte
	req  []byte
	// items is QueryID's request in wire form.
	items []wire.QueryItem
	// op and resp are the response: its op and a copy of its body.
	op   byte
	resp []byte
}

// callPool holds call states. Their buffers are bounded by the frame caps.
var callPool = sync.Pool{New: func() any {
	return &callState{wake: make(chan struct{}, 1)}
}}

// release recycles cs, first dropping the caller's bucket slices so the
// pool keeps none of them alive. Nothing a call returns aliases cs.
func (cs *callState) release() {
	clear(cs.items)
	cs.items = cs.items[:0]
	callPool.Put(cs)
}

// countingWriter counts the bytes the socket accepted: the stream offset
// the kernel has reached.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// frameLen is payload's size on the wire: its uvarint length prefix
// (wire.WriteFrame) plus the payload.
func frameLen(payload []byte) int64 {
	var hdr [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(hdr[:], uint64(len(payload))) + len(payload))
}

// Dial connects, performs the hello handshake and starts the response
// reader. The initial dial is eager and not retried: a config problem
// (bad address, wrong protocol) should fail loudly at startup.
func Dial(addr string, opts Options) (*Client, error) {
	maxFrame := opts.MaxFrameBytes
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrameBytes
	}
	policy := DefaultRetryPolicy()
	if opts.Retry != nil {
		policy = opts.Retry.withDefaults()
	}
	c := &Client{
		addr:     addr,
		opts:     opts,
		policy:   policy,
		maxFrame: maxFrame,
		closedCh: make(chan struct{}),
	}
	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.cc = cc
	c.hello = cc.hello
	return c, nil
}

// dialConn establishes one connection epoch: dial, handshake, reader.
func (c *Client) dialConn() (*clientConn, error) {
	var conn net.Conn
	var err error
	switch {
	case c.opts.Dialer != nil:
		conn, err = c.opts.Dialer(c.addr)
	case c.opts.DialTimeout > 0:
		conn, err = net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	default:
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return nil, err
	}
	cc := &clientConn{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 16<<10),
		out:     countingWriter{w: conn},
		pending: make(map[uint64]*callState),
		done:    make(chan struct{}),
	}
	cc.bw = bufio.NewWriterSize(&cc.out, 16<<10)
	if c.opts.DialTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	}
	if err := c.handshake(cc); err != nil {
		conn.Close()
		return nil, err
	}
	if c.opts.DialTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	go cc.readLoop(c.maxFrame)
	return cc, nil
}

func (c *Client) handshake(cc *clientConn) error {
	h := wire.Hello{Version: wire.Version, Tenant: c.opts.Tenant, Traceparent: c.opts.Traceparent}
	id := c.nextID.Add(1)
	payload := wire.AppendHelloBody(wire.AppendHeader(nil, wire.OpHello, id), &h)
	if err := wire.WriteFrame(cc.bw, payload); err != nil {
		return err
	}
	if err := cc.bw.Flush(); err != nil {
		return err
	}
	// The reader isn't running yet: the hello response is read synchronously.
	resp, err := wire.ReadFrame(cc.br, nil, c.maxFrame)
	if err != nil {
		return fmt.Errorf("client: handshake read: %w", err)
	}
	op, gotID, body, err := wire.ParseHeader(resp)
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	if gotID != id {
		return fmt.Errorf("client: handshake response for request %d, want %d", gotID, id)
	}
	if op == wire.OpError {
		return decodeAPIError(body)
	}
	if op != wire.OpHelloOK {
		return fmt.Errorf("client: unexpected handshake response op %#x", op)
	}
	if err := wire.DecodeHelloOKBody(body, &cc.hello); err != nil {
		return err
	}
	if cc.hello.Version != wire.Version {
		return fmt.Errorf("client: server speaks protocol version %d, want %d", cc.hello.Version, wire.Version)
	}
	return nil
}

// conn returns the live epoch, re-dialing if the previous one broke.
// Exactly one dial attempt: the caller's retry loop owns backoff.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc := c.cc
	c.mu.Unlock()
	if cc != nil && !cc.dead() {
		return cc, nil
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Re-check under dialMu: another caller may have already reconnected
	// (or Close may have run) while this one waited.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc = c.cc
	c.mu.Unlock()
	if cc != nil && !cc.dead() {
		return cc, nil
	}
	ncc, err := c.dialConn()
	if err != nil {
		c.dialFailures.Add(1)
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ncc.close(ErrClosed)
		return nil, ErrClosed
	}
	c.cc = ncc
	c.hello = ncc.hello
	c.mu.Unlock()
	c.reconnects.Add(1)
	return ncc, nil
}

func (cc *clientConn) dead() bool {
	select {
	case <-cc.done:
		return true
	default:
		return false
	}
}

// readLoop is the epoch's single response reader: it matches frames to
// waiting calls by request ID. Responses may arrive in any order.
//
//svt:hotpath
func (cc *clientConn) readLoop(maxFrame int) {
	var buf []byte
	for {
		payload, err := wire.ReadFrame(cc.br, buf, maxFrame)
		if err != nil {
			cc.close(err)
			return
		}
		buf = payload
		op, id, body, err := wire.ParseHeader(payload)
		if err != nil {
			cc.close(err)
			return
		}
		cc.mu.Lock()
		cs := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if cs != nil {
			// The frame buffer is reused for the next read: copy the body
			// into the waiter's own buffer. Nothing may fail between taking
			// cs and the wake, because a waiter that finds cs gone from
			// pending waits for it.
			cs.op, cs.resp = op, append(cs.resp[:0], body...)
			cs.wake <- struct{}{}
		}
	}
}

// close ends the epoch: it records the first fatal error, wakes every
// waiter, then closes the socket, so the server sees the hang-up and a
// flush blocked on the socket returns. Recording first means waiters
// observe the cause (ErrClosed after Client.Close) rather than the read
// loop's "use of closed network connection".
func (cc *clientConn) close(err error) error {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		close(cc.done)
	}
	cc.mu.Unlock()
	return cc.conn.Close()
}

// Close tears the connection down; in-flight calls fail fast with
// ErrClosed (never ErrAmbiguous, and never a reconnect).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		return cc.close(ErrClosed)
	}
	return nil
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Stats snapshots the self-healing counters.
func (c *Client) Stats() Stats {
	return Stats{
		Reconnects:   c.reconnects.Load(),
		DialFailures: c.dialFailures.Load(),
		Retries:      c.retries.Load(),
		Ambiguous:    c.ambiguous.Load(),
	}
}

// roundTrip sends cs.req, whose request ID is id, on this epoch and waits
// until the response is in cs. sent reports whether the frame could have
// reached the server; a false return proves the request never executed,
// which makes retrying safe for any operation.
//
// The frame is buffered under wmu. The first caller to buffer one while
// no flush is pending leads: it yields once, so runnable callers can
// buffer behind it, then flushes them all in one Write, the way the
// WAL's group commit gathers a batch. A failed Write therefore says
// nothing about one caller's frame. Instead each call notes the stream
// offset just past its frame, and when the epoch dies before the
// response arrives, the frame counts as sent iff the kernel accepted the
// stream up to that offset. A partial frame is dropped by the server's
// codec, never executed.
//
//svt:hotpath
func (cc *clientConn) roundTrip(id uint64, cs *callState) (sent bool, err error) {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return false, err
	}
	cc.pending[id] = cs
	cc.mu.Unlock()

	// No write starts on a dead epoch, so once it dies the accepted count
	// only moves while a flush already under way finishes.
	end := int64(math.MaxInt64) // past any count: not buffered, never sent
	lead := false
	cc.wmu.Lock()
	if !cc.dead() {
		end = cc.out.n + int64(cc.bw.Buffered()) + frameLen(cs.req)
		if werr := wire.WriteFrame(cc.bw, cs.req); werr != nil {
			// A write failure poisons the shared buffered writer; kill
			// the epoch so other pipelined calls fail over too.
			cc.close(werr)
		} else if !cc.flushing {
			cc.flushing, lead = true, true
		}
	}
	cc.wmu.Unlock()
	if lead {
		runtime.Gosched()
		cc.wmu.Lock()
		cc.flushing = false
		if !cc.dead() {
			if werr := cc.bw.Flush(); werr != nil {
				cc.close(werr)
			}
		}
		cc.wmu.Unlock()
	}

	select {
	case <-cs.wake:
		return true, nil
	case <-cc.done:
	}
	cc.mu.Lock()
	err = cc.err
	_, unanswered := cc.pending[id]
	delete(cc.pending, id)
	cc.mu.Unlock()
	if !unanswered {
		// The reader took cs before the epoch died and is copying the
		// response in. Wait for it: the answer beats reporting ambiguity,
		// and cs must not be reused while the reader writes to it.
		<-cs.wake
		return true, nil
	}
	// Taking wmu waits out any flush still in progress (close unblocks
	// it), so the count read here is final.
	cc.wmu.Lock()
	sent = cc.out.n >= end
	cc.wmu.Unlock()
	return sent, err
}

// opKind classifies calls for retry purposes.
type opKind int

const (
	// opIdempotent calls (Status, Mechanisms) re-execute harmlessly, so
	// they retry through every transport failure mode.
	opIdempotent opKind = iota
	// opMutating calls (Create, Query, Delete) spend budget or change
	// state; they retry only when provably unexecuted (typed retryable
	// error, or the request never left this machine) and otherwise fail
	// with ErrAmbiguous.
	opMutating
)

// retryableAPIError reports whether a typed server error is safe and
// worth retrying under the policy, and how long to wait first. Typed
// retryable errors are safe for every op kind: the server refused the
// request before executing it.
func retryableAPIError(ae *APIError, pol RetryPolicy) (time.Duration, bool) {
	switch ae.Code {
	case "unavailable":
		// Always retryable: the server refused before executing.
	case "rate_limited":
		if !pol.RetryRateLimited {
			return 0, false
		}
	default:
		return 0, false
	}
	wait := ae.RetryAfter
	if wait > pol.MaxRetryAfter {
		return 0, false
	}
	if wait <= 0 {
		wait = pol.BaseBackoff
	}
	return wait, true
}

// backoff returns the attempt'th reconnect delay: exponential with
// equal jitter (half fixed, half uniform random).
func backoff(pol RetryPolicy, attempt int) time.Duration {
	d := pol.BaseBackoff
	for i := 0; i < attempt && d < pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > pol.MaxBackoff {
		d = pol.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

// sleep waits d or until the client is closed, reporting false on close.
func (c *Client) sleep(d time.Duration) bool {
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closedCh:
		return false
	}
}

// call runs one logical request, an op with cs.body as its body, through
// the retry loop: get (or re-dial) a connection, round-trip, classify the
// failure, back off, repeat within the policy's attempt budget. Every
// attempt takes a fresh request ID. The returned body aliases cs.resp.
//
//svt:hotpath
func (c *Client) call(cs *callState, kind opKind, op, want byte) ([]byte, error) {
	pol := c.policy
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		cc, err := c.conn()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, ErrClosed
			}
			lastErr = err
			if !c.sleep(backoff(pol, attempt)) {
				return nil, ErrClosed
			}
			continue
		}
		id := c.nextID.Add(1)
		cs.req = append(wire.AppendHeader(cs.req[:0], op, id), cs.body...)
		sent, err := cc.roundTrip(id, cs)
		if err == nil {
			body, aerr := expect(cs.op, cs.resp, want)
			if aerr == nil {
				return body, nil
			}
			var ae *APIError
			if errors.As(aerr, &ae) && attempt+1 < pol.MaxAttempts {
				if wait, ok := retryableAPIError(ae, pol); ok {
					lastErr = aerr
					if !c.sleep(wait) {
						return nil, ErrClosed
					}
					continue
				}
			}
			return nil, aerr
		}
		// Transport-level failure. Close always wins: pending calls on a
		// user-closed client fail fast with the typed error.
		if errors.Is(err, ErrClosed) || c.isClosed() {
			return nil, ErrClosed
		}
		if sent && kind == opMutating {
			c.ambiguous.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrAmbiguous, err)
		}
		lastErr = err
		if attempt+1 < pol.MaxAttempts && !c.sleep(backoff(pol, attempt)) {
			return nil, ErrClosed
		}
	}
	return nil, lastErr
}

func decodeAPIError(body []byte) error {
	var ef wire.ErrorFrame
	if err := wire.DecodeErrorBody(body, &ef); err != nil {
		return err
	}
	return &APIError{
		Code:       ef.Code,
		Message:    ef.Message,
		RetryAfter: retryAfter(ef.RetryAfterSeconds),
	}
}

// retryAfter converts a retry hint in seconds to a Duration, saturating
// where the product would overflow: a hint too long for a Duration
// exceeds every MaxRetryAfter, so the error reaches the caller.
func retryAfter(secs uint64) time.Duration {
	if secs > uint64(math.MaxInt64/time.Second) {
		return math.MaxInt64
	}
	return time.Duration(secs) * time.Second
}

// expect unwraps a response: the wanted op's body, a typed APIError, or
// a protocol error.
func expect(op byte, body []byte, want byte) ([]byte, error) {
	switch op {
	case want:
		return body, nil
	case wire.OpError:
		return nil, decodeAPIError(body)
	default:
		return nil, fmt.Errorf("client: unexpected response op %#x, want %#x", op, want)
	}
}

// Mechanisms returns the server's mechanism registry with capability
// flags, in the server's order (sorted by name), fetched once and cached
// for the life of the client.
func (c *Client) Mechanisms() ([]MechanismInfo, error) {
	mechs, err := c.mechanismTable()
	if err != nil {
		return nil, err
	}
	return slices.Clone(mechs), nil
}

func (c *Client) mechanismTable() ([]MechanismInfo, error) {
	c.mechMu.Lock()
	defer c.mechMu.Unlock()
	if c.mechs != nil {
		return c.mechs, nil
	}
	cs := callPool.Get().(*callState)
	defer cs.release()
	cs.body = cs.body[:0]
	body, err := c.call(cs, opIdempotent, wire.OpMechanisms, wire.OpMechanismsOK)
	if err != nil {
		return nil, err
	}
	var mr MechanismsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		return nil, fmt.Errorf("client: bad mechanisms body: %w", err)
	}
	c.mechs = mr.Mechanisms
	return c.mechs, nil
}

// validateCreate checks params against the server's advertised
// capability flags, failing locally before a round trip is spent. This is
// what makes the SDK registry-driven: a new server mechanism is usable
// through it immediately, and requests a mechanism cannot serve are
// refused with the reason.
func (c *Client) validateCreate(params *CreateParams) error {
	mechs, err := c.mechanismTable()
	if err != nil {
		return err
	}
	i := slices.IndexFunc(mechs, func(mi MechanismInfo) bool { return mi.Name == params.Mechanism })
	if i < 0 {
		names := make([]string, len(mechs))
		for i, mi := range mechs {
			names[i] = mi.Name
		}
		return fmt.Errorf("client: unknown mechanism %q (server offers %s)",
			params.Mechanism, strings.Join(names, ", "))
	}
	mi := mechs[i]
	if params.Seed != 0 && !mi.Seedable {
		return fmt.Errorf("client: mechanism %q is not seedable", mi.Name)
	}
	if mi.NeedsHistogram && len(params.Histogram) == 0 {
		return fmt.Errorf("client: mechanism %q requires a histogram", mi.Name)
	}
	if !mi.NeedsHistogram && len(params.Histogram) > 0 {
		return fmt.Errorf("client: mechanism %q does not take a histogram", mi.Name)
	}
	if params.Monotonic && !mi.MonotonicRefinement {
		return fmt.Errorf("client: mechanism %q does not support the monotonic refinement", mi.Name)
	}
	return nil
}

// Create opens a session. The tenant is the connection's, from Dial.
// Create is budget-mutating: if the connection dies after the request
// was delivered, it fails with ErrAmbiguous rather than risk creating
// two sessions.
func (c *Client) Create(params CreateParams) (*CreateResponse, error) {
	if err := c.validateCreate(&params); err != nil {
		return nil, err
	}
	body, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	cs := callPool.Get().(*callState)
	defer cs.release()
	cs.body = append(cs.body[:0], body...)
	respBody, err := c.call(cs, opMutating, wire.OpCreate, wire.OpCreateOK)
	if err != nil {
		return nil, err
	}
	var cr CreateResponse
	if err := json.Unmarshal(respBody, &cr); err != nil {
		return nil, fmt.Errorf("client: bad create response: %w", err)
	}
	return &cr, nil
}

// Query answers a batch of queries against a session.
func (c *Client) Query(session string, items []QueryItem) (*BatchResult, error) {
	return c.QueryID(session, "", items)
}

// QueryID is Query with a caller-chosen correlation ID (the X-Request-Id
// equivalent): the server echoes it on the response and always samples
// the request into GET /v1/traces. Empty means the server mints one;
// either way BatchResult.RequestID carries the ID the response bore.
//
// A query whose request was delivered but whose response was lost fails
// with ErrAmbiguous and is never auto-retried: the server may have
// answered it (journaling the budget spend), and re-asking would spend
// budget again. Check Status to disambiguate.
//
//svt:hotpath
func (c *Client) QueryID(session, requestID string, items []QueryItem) (*BatchResult, error) {
	if max := c.ServerMaxBatch(); max > 0 && len(items) > max {
		return nil, fmt.Errorf("client: batch of %d exceeds the server cap of %d", len(items), max)
	}
	cs := callPool.Get().(*callState)
	defer cs.release()
	for _, it := range items {
		wi := wire.QueryItem{Query: it.Query, Buckets: it.Buckets}
		if it.Threshold != nil {
			wi.Threshold, wi.HasThreshold = *it.Threshold, true
		}
		cs.items = append(cs.items, wi)
	}
	cs.body = wire.AppendQueryBody(cs.body[:0], session, requestID, cs.items)
	body, err := c.call(cs, opMutating, wire.OpQuery, wire.OpQueryOK)
	if err != nil {
		return nil, err
	}
	// body aliases cs: the decode allocates Results afresh, and the
	// string conversion copies the correlation ID.
	var qr wire.QueryResponse
	if err := wire.DecodeQueryOKBody(body, &qr); err != nil {
		return nil, err
	}
	return &BatchResult{
		Results:   qr.Results,
		Halted:    qr.Halted,
		Remaining: qr.Remaining,
		RequestID: string(qr.Corr),
	}, nil
}

// Status fetches a session's current state. Status is read-only and
// retries through any transport failure.
func (c *Client) Status(session string) (*SessionStatus, error) {
	cs := callPool.Get().(*callState)
	defer cs.release()
	cs.body = wire.AppendIDBody(cs.body[:0], session)
	body, err := c.call(cs, opIdempotent, wire.OpStatus, wire.OpStatusOK)
	if err != nil {
		return nil, err
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("client: bad status response: %w", err)
	}
	return &st, nil
}

// Delete ends a session. Delete mutates state, so a delivered-but-
// unanswered delete fails with ErrAmbiguous (a retry could report
// not_found for a delete that actually succeeded).
func (c *Client) Delete(session string) error {
	cs := callPool.Get().(*callState)
	defer cs.release()
	cs.body = wire.AppendIDBody(cs.body[:0], session)
	_, err := c.call(cs, opMutating, wire.OpDelete, wire.OpDeleteOK)
	return err
}

// ServerMaxBatch reports the per-batch query cap the server announced in
// the (most recent) handshake.
func (c *Client) ServerMaxBatch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.hello.MaxBatch)
}

// ServerMaxFrame reports the frame-size cap the server announced in the
// (most recent) handshake.
func (c *Client) ServerMaxFrame() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.hello.MaxFrame)
}
