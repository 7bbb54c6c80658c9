package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
	"github.com/dpgo/svt/wire"
)

// WireServer is the binary edge: a length-prefixed frame listener
// (svtserve -wire-addr) dispatching onto the same SessionManager as the
// HTTP API, with full parity — the manager's admission gate (one rate
// limit budget per tenant across both edges), telemetry families, trace
// spans through the QueryTrace seam, and the
// journal-before-response invariant, which the wire path inherits by
// construction because every response frame is encoded only after the
// journal transaction carrying its request has committed.
//
// Each connection starts with a hello frame naming the protocol version,
// the tenant and an optional traceparent, then carries pipelined request
// frames, which one goroutine per connection serves in read passes. A
// pass blocks for one frame, then takes every further frame already whole
// in the connection's read buffer. Its queries, creates and deletes run
// in arrival order as one journal transaction — one store append — and
// every response is encoded after that append returns; the pass leaves
// in one flush. Status, mechanisms and refused frames (rate limit,
// shedding, protocol errors) journal nothing and are answered as they are
// read — a pipelined status does not see a query, create or delete queued
// ahead of it in the same pass — so responses within a pass may leave in
// any order (matched by request ID). A client that waits for each reply
// gets passes of one.
//
// The trade-off: one connection's server work runs on one goroutine, so a
// client that wants more server-side parallelism opens more connections.
// The per-connection hot path is pooled end to end: reused read buffer,
// pooled per-request scratch, reused response buffers — see
// TestWireQueryHotPathAllocs and TestWirePassAllocs for the pins.
type WireServer struct {
	mgr *SessionManager
	cfg WireConfig

	// queries is the query path shared with the HTTP edge.
	queries queryPipeline
	tel     *wireTelemetry

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*wireConn]struct{}
	closed bool
	// wg counts accept loops and connection handlers; Shutdown waits on it.
	wg sync.WaitGroup

	logf func(format string, args ...any)
}

// WireConfig configures the binary listener.
type WireConfig struct {
	// MaxFrameBytes caps a frame payload; 0 means DefaultMaxBodyBytes,
	// matching the HTTP body cap.
	MaxFrameBytes int
	// MaxBatch caps queries per batch; 0 means DefaultMaxBatch.
	MaxBatch int
	// Telemetry, when set, registers the svt_wire_* families. Use the
	// same registry as the manager and the HTTP API so one scrape covers
	// every edge.
	Telemetry *telemetry.Registry
	// Tracer, when set, head-samples wire queries into the same span-tree
	// shape as the HTTP path (decode, manager/answer/journal.wait with
	// store flush phases, encode), served on GET /v1/traces.
	Tracer *trace.Tracer
	// IdleTimeout re-arms a read+write deadline on the connection once per
	// read pass, each time the connection goes back to wait for a frame: a
	// peer that goes silent (or stops reading its responses) for this long
	// is disconnected instead of holding a goroutine and its buffers
	// forever. Before this knob only Shutdown ever set a deadline. 0
	// disables (the historical behavior, and what latency benchmarks use).
	IdleTimeout time.Duration
}

// ErrWireServerClosed is returned by Serve after Shutdown, mirroring
// http.ErrServerClosed.
var ErrWireServerClosed = errors.New("wire server closed")

// NewWireServer wraps the manager. The manager must outlive the server.
func NewWireServer(mgr *SessionManager, cfg WireConfig) *WireServer {
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	ws := &WireServer{
		mgr: mgr,
		cfg: cfg,
		// No slow-query line: its threshold is an HTTP option.
		queries: queryPipeline{
			mgr: mgr, tracer: cfg.Tracer, edge: "wire", route: "wire:query", maxBatch: cfg.MaxBatch,
		},
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*wireConn]struct{}),
		logf:  log.Printf,
	}
	if cfg.Telemetry != nil {
		ws.tel = registerWireTelemetry(cfg.Telemetry)
	}
	return ws
}

// Serve accepts connections on ln until the listener fails or Shutdown
// closes it; after Shutdown it returns ErrWireServerClosed.
func (ws *WireServer) Serve(ln net.Listener) error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ln.Close()
		return ErrWireServerClosed
	}
	ws.lns[ln] = struct{}{}
	ws.wg.Add(1)
	ws.mu.Unlock()
	defer func() {
		ws.mu.Lock()
		delete(ws.lns, ln)
		ws.mu.Unlock()
		ws.wg.Done()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return ErrWireServerClosed
			}
			return err
		}
		c := ws.newConn(conn)
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			conn.Close()
			return ErrWireServerClosed
		}
		ws.conns[c] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()
		go func() {
			defer ws.wg.Done()
			c.serve()
		}()
	}
}

// Shutdown stops accepting, interrupts every connection's blocked read,
// lets in-flight requests finish and their responses flush, and waits —
// bounded by ctx — for all connections to drain. Call it before the final
// snapshot so wire-journaled progress is in the state being snapshotted.
func (ws *WireServer) Shutdown(ctx context.Context) error {
	ws.mu.Lock()
	ws.closed = true
	for ln := range ws.lns {
		ln.Close()
	}
	conns := make([]*wireConn, 0, len(ws.conns))
	for c := range ws.conns {
		conns = append(conns, c)
	}
	ws.mu.Unlock()
	for _, c := range conns {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		ws.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		ws.mu.Lock()
		for c := range ws.conns {
			c.c.Close()
		}
		ws.mu.Unlock()
		return ctx.Err()
	}
}

// wireTelemetry is the wire edge's family set: a connections gauge,
// per-op request counters split ok/error, and a sampled query latency
// histogram (1-in-querySamplePeriod, like every other hot-path
// histogram).
type wireTelemetry struct {
	tick        atomic.Uint64
	connections *telemetry.Gauge
	requests    [wireOpCount][2]*telemetry.Counter
	latency     *telemetry.Histogram
}

// Op indices for wireTelemetry.requests.
const (
	wireOpHelloIdx = iota
	wireOpQueryIdx
	wireOpCreateIdx
	wireOpStatusIdx
	wireOpDeleteIdx
	wireOpMechanismsIdx
	wireOpOtherIdx
	wireOpCount
)

var wireOpNames = [wireOpCount]string{
	"hello", "query", "create", "status", "delete", "mechanisms", "other",
}

func registerWireTelemetry(reg *telemetry.Registry) *wireTelemetry {
	t := &wireTelemetry{}
	t.connections = reg.NewGauge("svt_wire_connections",
		"Open wire-protocol connections.")
	requests := reg.NewCounterVec("svt_wire_requests_total",
		"Wire-protocol requests by op and outcome.")
	for i, op := range wireOpNames {
		t.requests[i][0] = requests.With(telemetry.Labels(
			telemetry.Label("op", op), telemetry.Label("status", "ok")))
		t.requests[i][1] = requests.With(telemetry.Labels(
			telemetry.Label("op", op), telemetry.Label("status", "error")))
	}
	t.latency = reg.NewHistogramVec("svt_wire_request_duration_seconds",
		"Wire request latency by op (sampled 1-in-8).", telemetry.LatencyBuckets).
		With(telemetry.Label("op", "query"))
	return t
}

// sampleStart is the wire hot path's 1-in-N latency sampling decision,
// reading the clock only for sampled requests. Nil-safe.
func (t *wireTelemetry) sampleStart() (int64, bool) {
	if t == nil || t.tick.Add(1)&(querySamplePeriod-1) != 0 {
		return 0, false
	}
	return telemetry.Now(), true
}

// count records one finished request. Nil-safe.
//
//svt:hotpath
func (t *wireTelemetry) count(opIdx int, ok bool) {
	if t == nil {
		return
	}
	if ok {
		t.requests[opIdx][0].Inc()
	} else {
		t.requests[opIdx][1].Inc()
	}
}

// wireScratch is the pooled working set of one request a pass journals —
// a query, a create or a delete: its identity, the decoded request (a
// query's with its bucket arena, a create's params), the manager-facing
// item and threshold slices, the pipeline call with its result slice, the
// manager's answer, and the response encode buffers. Everything it keeps
// is copied out of the read buffer, which the next frame reuses. A
// connection's own scratch builds the responses written in place.
type wireScratch struct {
	op    byte
	reqID uint64
	// session is a query's session or a delete's target.
	session    string
	req        wire.QueryRequest
	items      []QueryItem
	thresholds []float64
	call       queryCall
	params     CreateParams
	// The manager's answer: a query's results, a created session or
	// whether a deleted one existed, and the request's own error.
	res     BatchResult
	created *Session
	found   bool
	err     error
	// start and sampled are a query's wire latency sample.
	start   int64
	sampled bool
	out     []byte
	corr    []byte
}

var wireScratchPool = sync.Pool{New: func() any {
	return &wireScratch{out: make([]byte, 0, 512)}
}}

// release recycles a scratch, dropping everything request-scoped first so
// the pool pins no session state, span or decoded pointers.
func (sc *wireScratch) release() {
	sc.session, sc.req.Session, sc.req.Corr = "", nil, nil
	sc.call.reset()
	sc.params, sc.res, sc.created, sc.err = CreateParams{}, BatchResult{}, nil, nil
	wireScratchPool.Put(sc)
}

// wireConn is one accepted connection, served entirely by its reader
// goroutine: it owns the buffered reader and writer, the read buffer, its
// own scratch for the responses written in place, and the pass's queued
// requests.
type wireConn struct {
	srv *WireServer
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	tenant string
	// tpID is the trace ID of the hello's traceparent, zero without one.
	tpID trace.TraceID

	readBuf []byte
	sc      *wireScratch
	// pending holds the pass's queries, creates and deletes in arrival
	// order, each in its own pooled scratch.
	pending []*wireScratch

	draining atomic.Bool
}

func (ws *WireServer) newConn(conn net.Conn) *wireConn {
	return &wireConn{
		srv: ws,
		c:   conn,
		br:  bufio.NewReaderSize(conn, 16<<10),
		bw:  bufio.NewWriterSize(conn, 16<<10),
		sc:  wireScratchPool.Get().(*wireScratch),
	}
}

// beginDrain interrupts the connection's blocked read so its reader loop
// can finish in-flight work and close. Requests whose frames were already
// read complete and their responses flush; a partially received frame is
// abandoned.
func (c *wireConn) beginDrain() {
	c.draining.Store(true)
	c.c.SetReadDeadline(time.Now())
}

func (c *wireConn) serve() {
	if t := c.srv.tel; t != nil {
		t.connections.Add(1)
	}
	c.run()
	// Every pass answered its frames before run returned: flush whatever
	// is buffered, then tear the connection down.
	c.bw.Flush()
	c.c.Close()
	c.sc.release()
	c.sc = nil
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	if t := c.srv.tel; t != nil {
		t.connections.Add(-1)
	}
}

// run is the read loop: handshake, then passes until a read error or
// drain. It is deliberately not //svt:hotpath-marked: the idle-deadline
// re-arm reads the wall clock once per pass, which is fine off the pinned
// allocation path.
func (c *wireConn) run() {
	c.armIdleDeadline()
	if !c.handshake() {
		return
	}
	for {
		c.armIdleDeadline()
		if c.pass() != nil {
			return
		}
	}
}

// pass serves one read: it takes the frames read delivered, answers them
// and flushes. A corrupt or oversized frame first lets the frames before
// it be answered, then sends its error frame and ends the connection:
// past it the stream offset is not trustworthy.
func (c *wireConn) pass() error {
	f, err := c.read()
	if aerr := c.answer(); aerr != nil {
		return aerr
	}
	if f.code != "" {
		c.writeError(c.sc.errorPayload(0, f))
	}
	return err
}

// read takes a pass's frames: it blocks for one, then takes every further
// frame whose bytes are already whole in the read buffer, so a pass never
// blocks midway and holds at most one read buffer of frames. A non-nil
// error ends the connection after the pass; f, when set, is the error
// frame to send first.
func (c *wireConn) read() (failure, error) {
	maxFrame := c.srv.cfg.MaxFrameBytes
	for {
		payload, err := wire.ReadFrame(c.br, c.readBuf, maxFrame)
		c.readBuf = payload
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				return failure{CodeTooLarge, err.Error(), 0}, err
			}
			return failure{}, err
		}
		op, reqID, body, err := wire.ParseHeader(payload)
		if err != nil {
			return failure{CodeBadRequest, err.Error(), 0}, err
		}
		if err := c.accept(op, reqID, body); err != nil {
			return failure{}, err
		}
		if !c.frameBuffered() {
			return failure{}, nil
		}
	}
}

// frameBuffered reports whether the read buffer already holds a whole
// frame, so reading it cannot block.
//
//svt:hotpath
func (c *wireConn) frameBuffered() bool {
	n := c.br.Buffered()
	if n == 0 {
		return false
	}
	prefix, _ := c.br.Peek(min(n, binary.MaxVarintLen64))
	size, k := binary.Uvarint(prefix)
	return k > 0 && size <= uint64(n-k)
}

// armIdleDeadline pushes the connection's read+write deadline IdleTimeout
// into the future, unless draining (beginDrain owns the deadline then: it
// set an immediate one to interrupt the blocked read, and re-arming would
// resurrect a drain-stalled connection for a full idle period).
func (c *wireConn) armIdleDeadline() {
	idle := c.srv.cfg.IdleTimeout
	if idle <= 0 || c.draining.Load() {
		return
	}
	_ = c.c.SetDeadline(time.Now().Add(idle))
	if c.draining.Load() {
		// beginDrain raced the re-arm; restore its immediate deadline.
		_ = c.c.SetReadDeadline(time.Now())
	}
}

// handshake reads and answers the mandatory hello frame.
func (c *wireConn) handshake() bool {
	payload, err := wire.ReadFrame(c.br, c.readBuf, c.srv.cfg.MaxFrameBytes)
	c.readBuf = payload
	if err != nil {
		return false
	}
	op, reqID, body, err := wire.ParseHeader(payload)
	if err != nil || op != wire.OpHello {
		c.writeError(c.sc.errorPayload(reqID, failure{CodeBadRequest, "first frame must be hello", 0}))
		return false
	}
	var h wire.Hello
	if err := wire.DecodeHelloBody(body, &h); err != nil {
		c.srv.tel.count(wireOpHelloIdx, false)
		c.writeError(c.sc.errorPayload(reqID, failure{CodeBadRequest, "bad hello body: " + err.Error(), 0}))
		return false
	}
	if h.Version != wire.Version {
		c.srv.tel.count(wireOpHelloIdx, false)
		c.writeError(c.sc.errorPayload(reqID, failure{CodeBadRequest,
			fmt.Sprintf("unsupported protocol version %d (want %d)", h.Version, wire.Version), 0}))
		return false
	}
	c.tenant = h.Tenant
	c.tpID, _, _ = trace.ParseTraceparent(h.Traceparent)
	ok := wire.HelloOK{
		Version:  wire.Version,
		MaxFrame: uint64(c.srv.cfg.MaxFrameBytes),
		MaxBatch: uint64(c.srv.cfg.MaxBatch),
	}
	out := wire.AppendHeader(c.sc.out[:0], wire.OpHelloOK, reqID)
	out = wire.AppendHelloOKBody(out, &ok)
	c.sc.out = out[:0]
	c.srv.tel.count(wireOpHelloIdx, true)
	return wire.WriteFrame(c.bw, out) == nil && c.bw.Flush() == nil
}

// handleOp serves one frame as a pass of its own: the path of a client
// that waits for each reply.
func (c *wireConn) handleOp(op byte, reqID uint64, body []byte) error {
	if err := c.accept(op, reqID, body); err != nil {
		return err
	}
	return c.answer()
}

// accept takes one frame into the pass, first charging it to the hello's
// tenant at the manager's admission gate. Queries, creates and deletes are
// queued for the pass's journal transaction; everything else journals
// nothing and is answered in place, as is a rate-limited frame. A non-nil
// error is a failed write: the connection is gone.
func (c *wireConn) accept(op byte, reqID uint64, body []byte) error {
	if g := &c.srv.mgr.gate; g.on {
		if f := g.limit(c.tenant); f.code != "" {
			c.srv.tel.count(wireOpIndex(op), false)
			return wire.WriteFrame(c.bw, c.sc.errorPayload(reqID, f))
		}
	}
	switch op {
	case wire.OpQuery, wire.OpCreate, wire.OpDelete:
		return c.queue(op, reqID, body)
	case wire.OpStatus:
		return c.handleStatus(reqID, body)
	case wire.OpMechanisms:
		return c.handleMechanisms(reqID)
	case wire.OpHello:
		c.srv.tel.count(wireOpHelloIdx, false)
		return wire.WriteFrame(c.bw, c.sc.errorPayload(reqID, failure{CodeBadRequest, "duplicate hello", 0}))
	default:
		c.srv.tel.count(wireOpOtherIdx, false)
		return wire.WriteFrame(c.bw, c.sc.errorPayload(reqID, failure{CodeBadRequest,
			fmt.Sprintf("unknown op %#x", op), 0}))
	}
}

func wireOpIndex(op byte) int {
	switch op {
	case wire.OpHello:
		return wireOpHelloIdx
	case wire.OpQuery:
		return wireOpQueryIdx
	case wire.OpCreate:
		return wireOpCreateIdx
	case wire.OpStatus:
		return wireOpStatusIdx
	case wire.OpDelete:
		return wireOpDeleteIdx
	case wire.OpMechanisms:
		return wireOpMechanismsIdx
	default:
		return wireOpOtherIdx
	}
}

// queue decodes a query, create or delete into its own pooled scratch and
// adds it to the pass. A query shed at the wire's in-flight cap, and a
// request that fails to decode or to pass the pipeline's admission, is
// answered in place.
//
//svt:hotpath
func (c *wireConn) queue(op byte, reqID uint64, body []byte) error {
	if g := &c.srv.mgr.gate; op == wire.OpQuery && g.on {
		if f := g.enter(edgeWire); f.code != "" {
			c.srv.tel.count(wireOpQueryIdx, false)
			return wire.WriteFrame(c.bw, c.sc.errorPayload(reqID, f))
		}
	}
	sc := wireScratchPool.Get().(*wireScratch)
	sc.op, sc.reqID = op, reqID
	var f failure
	switch op {
	case wire.OpQuery:
		sc.start, sc.sampled = c.srv.tel.sampleStart()
		f = c.decodeQuery(sc, body)
	case wire.OpCreate:
		if err := json.Unmarshal(body, &sc.params); err != nil {
			f = failure{CodeBadRequest, "bad request body: " + err.Error(), 0}
		}
		// The tenant comes from the hello handshake, never the body — the
		// same rule as the HTTP header.
		sc.params.Tenant = c.tenant
	case wire.OpDelete:
		id, err := wire.DecodeIDBody(body)
		if err != nil {
			f = failure{CodeBadRequest, err.Error(), 0}
		}
		sc.session = string(id)
	}
	if f.code == "" {
		c.pending = append(c.pending, sc)
		return nil
	}
	out := sc.errorPayload(reqID, f)
	if op == wire.OpQuery {
		sc.call.root.End()
		c.finishQuery(sc, out)
	} else {
		c.srv.tel.count(wireOpIndex(op), false)
	}
	err := wire.WriteFrame(c.bw, out)
	sc.release()
	return err
}

// decodeQuery is the wire edge's query decode followed by the pipeline's
// admission. The session and correlation IDs are copied out of the read
// buffer; the correlation ID travels in the body, so the pipeline begins
// after the decode.
//
//svt:hotpath
func (c *wireConn) decodeQuery(sc *wireScratch, body []byte) failure {
	if err := wire.DecodeQueryBody(body, &sc.req); err != nil {
		return failure{CodeBadRequest, "bad query body: " + err.Error(), 0}
	}
	q := &sc.call
	c.srv.queries.begin(q, string(sc.req.Corr), c.tpID)
	sc.session = string(sc.req.Session)
	sc.req.Session, sc.req.Corr = nil, nil
	// Convert to the manager's item shape. Thresholds live in a parallel
	// arena; pointers are taken only after both slices stop growing.
	n := len(sc.req.Items)
	items := sc.items[:0]
	if cap(items) < n {
		items = make([]QueryItem, 0, n)
	}
	thresholds := sc.thresholds[:0]
	if cap(thresholds) < n {
		thresholds = make([]float64, 0, n)
	}
	for i := range sc.req.Items {
		wi := &sc.req.Items[i]
		items = append(items, QueryItem{Query: wi.Query, Buckets: wi.Buckets})
		thresholds = append(thresholds, wi.Threshold)
	}
	for i := range sc.req.Items {
		if sc.req.Items[i].HasThreshold {
			items[i].Threshold = &thresholds[i]
		}
	}
	sc.items, sc.thresholds = items, thresholds
	return c.srv.queries.admit(q, sc.session, items)
}

// answer runs the pass's queued requests in arrival order as one journal
// transaction, encodes every response after the commit, and flushes the
// pass, the responses written in place included.
//
//svt:hotpath
func (c *wireConn) answer() error {
	var err error
	if len(c.pending) > 0 {
		tx := c.srv.mgr.beginTx()
		for _, sc := range c.pending {
			switch sc.op {
			case wire.OpQuery:
				sc.res, sc.err = tx.query(sc.session, sc.items, sc.call.results[:0], sc.call.tr)
			case wire.OpCreate:
				sc.created, sc.err = tx.create(sc.params)
			case wire.OpDelete:
				sc.found = tx.delete(sc.session)
			}
		}
		cerr := tx.commit()
		for _, sc := range c.pending {
			if werr := wire.WriteFrame(c.bw, c.respond(sc, cerr)); err == nil {
				err = werr
			}
			sc.release()
		}
		clear(c.pending)
		c.pending = c.pending[:0]
	}
	if ferr := c.bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// respond builds sc's response once the pass's transaction has committed
// with error cerr, and accounts for it. A request that failed on its own
// reports its own error; a delete reports done whatever the commit did
// (see Delete); every other request reports the commit's error, which
// withholds its answer.
//
//svt:hotpath
func (c *wireConn) respond(sc *wireScratch, cerr error) []byte {
	err := sc.err
	if err == nil {
		err = cerr
	}
	switch sc.op {
	case wire.OpQuery:
		return c.queryResponse(sc, err)
	case wire.OpCreate:
		var out []byte
		if err != nil {
			out = sc.errorPayload(sc.reqID, classify(err, ""))
		} else {
			out = sc.jsonPayload(wire.OpCreateOK, sc.reqID, CreateResponse{
				SessionStatus: sc.created.Status(),
				TTLSeconds:    sc.created.ttl.Seconds(),
			})
		}
		c.srv.tel.count(wireOpCreateIdx, out[0] != wire.OpError)
		return out
	default:
		if !sc.found {
			c.srv.tel.count(wireOpDeleteIdx, false)
			return sc.errorPayload(sc.reqID, noSuchSession(sc.session))
		}
		out := wire.AppendHeader(sc.out[:0], wire.OpDeleteOK, sc.reqID)
		sc.out = out[:0]
		c.srv.tel.count(wireOpDeleteIdx, true)
		return out
	}
}

// queryResponse is the pipeline's finish half followed by the wire
// encode. It returns the complete response payload (success or typed
// error) backed by sc.out.
//
//svt:hotpath
func (c *wireConn) queryResponse(sc *wireScratch, err error) []byte {
	q := &sc.call
	defer q.root.End()
	res, f := c.srv.queries.finish(q, sc.session, sc.res, err)
	if f.code != "" {
		out := sc.errorPayload(sc.reqID, f)
		c.finishQuery(sc, out)
		return out
	}
	es := q.root.StartChild("encode")
	sc.corr = append(sc.corr[:0], q.corr...)
	out := wire.AppendHeader(sc.out[:0], wire.OpQueryOK, sc.reqID)
	out = wire.AppendQueryOKBody(out, sc.corr, res.Halted, res.Remaining, res.Results)
	sc.out = out[:0]
	es.End()
	c.finishQuery(sc, out)
	return out
}

// finishQuery frees a query's in-flight slot — before the pass flushes,
// so a client that sends its next query as soon as it reads this reply
// is not shed because of it — and accounts for its response.
//
//svt:hotpath
func (c *wireConn) finishQuery(sc *wireScratch, out []byte) {
	c.srv.mgr.gate.leave(edgeWire)
	if t := c.srv.tel; t != nil {
		t.count(wireOpQueryIdx, out[0] == wire.OpQueryOK)
		if sc.sampled {
			t.latency.ObserveNExemplar(telemetry.Seconds(telemetry.Now()-sc.start), querySamplePeriod, sc.call.root.TraceIDString())
		}
	}
}

// writeError writes and flushes an error frame outside a pass (handshake
// failures, a corrupt or oversized frame), logging a failed write rather
// than surfacing it — the connection is being torn down anyway.
func (c *wireConn) writeError(payload []byte) {
	err := wire.WriteFrame(c.bw, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.srv.logf("server: wire error-frame write failed: %v", err)
	}
}

// errorPayload builds an OpError payload for f into sc.out.
func (sc *wireScratch) errorPayload(reqID uint64, f failure) []byte {
	out := wire.AppendHeader(sc.out[:0], wire.OpError, reqID)
	ef := wire.ErrorFrame{Code: f.code, Message: f.msg, RetryAfterSeconds: f.retryAfter}
	out = wire.AppendErrorBody(out, &ef)
	sc.out = out[:0]
	return out
}

// jsonPayload builds a response payload whose body is v's JSON encoding —
// the cold control ops carry the HTTP API's body types verbatim. A failed
// encode becomes a store_failure error frame.
func (sc *wireScratch) jsonPayload(op byte, reqID uint64, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return sc.errorPayload(reqID, failure{CodeStoreFailure, "response encode failed: " + err.Error(), 0})
	}
	out := wire.AppendHeader(sc.out[:0], op, reqID)
	out = append(out, b...)
	sc.out = out[:0]
	return out
}

func (c *wireConn) handleStatus(reqID uint64, body []byte) error {
	id, err := wire.DecodeIDBody(body)
	if err != nil {
		c.srv.tel.count(wireOpStatusIdx, false)
		return wire.WriteFrame(c.bw, c.sc.errorPayload(reqID, failure{CodeBadRequest, err.Error(), 0}))
	}
	s, ok := c.srv.mgr.Get(string(id))
	if !ok {
		c.srv.tel.count(wireOpStatusIdx, false)
		return wire.WriteFrame(c.bw, c.sc.errorPayload(reqID, noSuchSession(string(id))))
	}
	out := c.sc.jsonPayload(wire.OpStatusOK, reqID, s.Status())
	c.srv.tel.count(wireOpStatusIdx, out[0] != wire.OpError)
	return wire.WriteFrame(c.bw, out)
}

func (c *wireConn) handleMechanisms(reqID uint64) error {
	out := c.sc.jsonPayload(wire.OpMechanismsOK, reqID,
		MechanismsResponse{Mechanisms: c.srv.mgr.Mechanisms()})
	c.srv.tel.count(wireOpMechanismsIdx, out[0] != wire.OpError)
	return wire.WriteFrame(c.bw, out)
}
