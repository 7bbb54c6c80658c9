package server

import (
	"bufio"
	"context"
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
// HTTP API, with full parity — per-tenant rate limiting, telemetry
// families, trace spans through the QueryTrace seam, and the
// journal-before-response invariant, which the wire path inherits by
// construction because every response frame is encoded only after
// SessionManager.Query* returns, i.e. after the journal append.
//
// Each connection starts with a hello frame naming the protocol version,
// the tenant and an optional traceparent, then carries pipelined
// request frames whose responses may return out of order (matched by
// request ID). The per-connection hot path is pooled end to end: reused
// read buffer, pooled decode scratch, reused response buffer — see
// TestWireQueryHotPathAllocs for the pin.
type WireServer struct {
	mgr *SessionManager
	cfg WireConfig

	// queries is the query path shared with the HTTP edge.
	queries queryPipeline
	tel     *wireTelemetry
	// limiter mirrors API.limiter: attachable after the server is serving.
	limiter atomic.Pointer[RateLimiter]

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*wireConn]struct{}
	closed bool
	// wg counts accept loops and connection handlers; Shutdown waits on it.
	wg sync.WaitGroup

	// inFlight counts admitted queries across every connection when
	// cfg.MaxInFlight is set (untouched otherwise). Admission happens on
	// the reader goroutines, release once the response payload is built.
	inFlight atomic.Int64

	logf func(format string, args ...any)
}

// admitQuery reserves an in-flight slot under cfg.MaxInFlight. A false
// return means the query must be shed with a retryable error frame.
func (ws *WireServer) admitQuery() bool {
	if ws.cfg.MaxInFlight <= 0 {
		return true
	}
	if ws.inFlight.Add(1) > int64(ws.cfg.MaxInFlight) {
		ws.inFlight.Add(-1)
		ws.mgr.shedWire.Add(1)
		return false
	}
	return true
}

func (ws *WireServer) releaseQuery() {
	if ws.cfg.MaxInFlight > 0 {
		ws.inFlight.Add(-1)
	}
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
	// IdleTimeout re-arms a read+write deadline on the connection each
	// time a frame arrives: a peer that goes silent (or stops reading
	// its responses) for this long is disconnected instead of holding a
	// goroutine and its buffers forever. Before this knob only Shutdown
	// ever set a deadline. 0 disables (the historical behavior, and what
	// latency benchmarks use).
	IdleTimeout time.Duration
	// MaxInFlight caps queries in flight across all connections (worker
	// pool plus queues). Past the cap the server load-sheds with a typed
	// "unavailable" error frame carrying RetryAfterSeconds, counted in
	// svt_shed_total{edge="wire"} — shedding, not queue collapse. 0
	// means unlimited.
	MaxInFlight int
}

// wireWorkers caps the per-connection pipeline workers that serve
// out-of-order responses. A connection that never pipelines (next request
// only after the response) is served inline by its reader goroutine and
// spawns no workers.
const wireWorkers = 4

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

// SetRateLimiter attaches the per-tenant limiter — normally the same one
// whose Middleware wraps the HTTP API, so both edges share one budget. A
// rejected wire request gets the typed rate_limited error frame with the
// same retry-after computation as the HTTP 429.
func (ws *WireServer) SetRateLimiter(rl *RateLimiter) {
	ws.limiter.Store(rl)
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

// wireScratch is the pooled per-request working set of the wire query
// path: decoded request (with its bucket arena), the manager-facing item
// and threshold slices, the pipeline call with its result slice, the
// codec's result slice, the response encode buffer and the correlation
// buffer.
type wireScratch struct {
	req        wire.QueryRequest
	items      []QueryItem
	thresholds []float64
	call       queryCall
	wres       []wire.Result
	out        []byte
	corr       []byte
}

var wireScratchPool = sync.Pool{New: func() any {
	return &wireScratch{out: make([]byte, 0, 512)}
}}

// wireJob is one pipelined query handed to a connection worker. The body
// is an owned copy: the reader's frame buffer is already being reused for
// the next frame by the time a worker runs.
type wireJob struct {
	reqID uint64
	body  []byte
}

// wireConn is one accepted connection. The reader goroutine owns br,
// readBuf and sc; responses (reader's or workers') are serialized by wmu
// over the shared buffered writer. Everything else a worker touches is
// its own scratch or read-only after the handshake.
type wireConn struct {
	srv *WireServer
	c   net.Conn
	br  *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	tenant string
	// tpID is the trace ID of the hello's traceparent, zero without one.
	tpID trace.TraceID

	readBuf []byte
	sc      *wireScratch

	// inflight counts dispatched-but-unwritten pipelined responses; the
	// writer flushes when it drains to zero.
	inflight atomic.Int32
	jobs     chan wireJob
	workers  int
	wwg      sync.WaitGroup

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
	// Drain: stop feeding workers, wait for in-flight responses, flush
	// whatever is buffered, then tear the connection down.
	if c.jobs != nil {
		close(c.jobs)
	}
	c.wwg.Wait()
	c.wmu.Lock()
	c.bw.Flush()
	c.wmu.Unlock()
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

// release recycles a scratch, dropping everything request-scoped first so
// the pool pins no session state, span or decoded pointers.
func (sc *wireScratch) release() {
	sc.req.Session, sc.req.Corr = nil, nil
	sc.call.reset()
	wireScratchPool.Put(sc)
}

// run is the read loop: handshake, then frames until read error or drain.
// It is deliberately not //svt:hotpath-marked: the idle-deadline re-arm
// reads the wall clock once per received frame, which is fine off the
// pinned allocation path.
func (c *wireConn) run() {
	c.armIdleDeadline()
	if !c.handshake() {
		return
	}
	maxFrame := c.srv.cfg.MaxFrameBytes
	for {
		c.armIdleDeadline()
		payload, err := wire.ReadFrame(c.br, c.readBuf, maxFrame)
		c.readBuf = payload
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				c.writeError(c.sc.errorPayload(0, failure{CodeTooLarge, err.Error(), 0}))
			}
			return
		}
		op, reqID, body, err := wire.ParseHeader(payload)
		if err != nil {
			// Corrupt framing: past this point the stream offset is not
			// trustworthy, so answer and drop the connection.
			c.writeError(c.sc.errorPayload(0, failure{CodeBadRequest, err.Error(), 0}))
			return
		}
		if rl := c.srv.limiter.Load(); rl != nil {
			if ok, wait := rl.Allow(c.tenant); !ok {
				c.srv.tel.count(wireOpIndex(op), false)
				c.writeError(c.sc.errorPayload(reqID, rl.rejection(c.tenant, wait)))
				continue
			}
		}
		isQuery := op == wire.OpQuery
		if isQuery && !c.srv.admitQuery() {
			// Worker pool plus queue saturated: shed with the typed
			// retryable error rather than queueing toward collapse.
			c.srv.tel.count(wireOpQueryIdx, false)
			c.writeError(c.sc.errorPayload(reqID, failure{CodeUnavailable,
				"server overloaded: in-flight query cap reached, retry shortly",
				DefaultRetryAfterSeconds}))
			continue
		}
		if isQuery && (c.br.Buffered() > 0 || c.inflight.Load() > 0) {
			// The client is pipelining: hand the query to a worker so a
			// slow journal flush on one request doesn't head-of-line block
			// the rest, and responses return as they finish.
			c.dispatch(reqID, body)
			continue
		}
		if c.handleOp(c.sc, op, reqID, body) != nil {
			return
		}
	}
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
	return c.writeFrame(out) == nil
}

// dispatch hands a pipelined query to a worker, growing the pool up to
// the configured cap.
func (c *wireConn) dispatch(reqID uint64, body []byte) {
	if c.jobs == nil {
		c.jobs = make(chan wireJob, 2*wireWorkers)
	}
	if c.workers < wireWorkers {
		c.workers++
		c.wwg.Add(1)
		go c.worker()
	}
	c.inflight.Add(1)
	c.jobs <- wireJob{reqID: reqID, body: append([]byte(nil), body...)}
}

func (c *wireConn) worker() {
	defer c.wwg.Done()
	sc := wireScratchPool.Get().(*wireScratch)
	defer sc.release()
	for job := range c.jobs {
		c.handleQuery(sc, job.reqID, job.body, true)
	}
}

// handleOp serves one inline (non-pipelined) request on the reader
// goroutine.
func (c *wireConn) handleOp(sc *wireScratch, op byte, reqID uint64, body []byte) error {
	switch op {
	case wire.OpQuery:
		return c.handleQuery(sc, reqID, body, false)
	case wire.OpCreate:
		return c.handleCreate(sc, reqID, body)
	case wire.OpStatus:
		return c.handleStatus(sc, reqID, body)
	case wire.OpDelete:
		return c.handleDelete(sc, reqID, body)
	case wire.OpMechanisms:
		return c.handleMechanisms(sc, reqID)
	case wire.OpHello:
		c.srv.tel.count(wireOpHelloIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, failure{CodeBadRequest, "duplicate hello", 0}))
	default:
		c.srv.tel.count(wireOpOtherIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, failure{CodeBadRequest,
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

// handleQuery runs one admitted query request end to end: build the
// response payload (hot, pooled), free the in-flight slot, write the
// payload with pipelining-aware flushing, then account for it.
//
//svt:hotpath
func (c *wireConn) handleQuery(sc *wireScratch, reqID uint64, body []byte, pipelined bool) error {
	start, sampled := c.srv.tel.sampleStart()
	out := c.queryResponse(sc, reqID, body)
	// Free the slot before the write: a client that sends its next query
	// as soon as it reads this reply must not be shed because of it.
	c.srv.releaseQuery()
	var err error
	if pipelined {
		err = c.finishJob(out)
	} else {
		err = c.writeFrame(out)
	}
	if t := c.srv.tel; t != nil {
		t.count(wireOpQueryIdx, out[0] == wire.OpQueryOK)
		if sampled {
			t.latency.ObserveNExemplar(telemetry.Seconds(telemetry.Now()-start), querySamplePeriod, sc.call.root.TraceIDString())
		}
	}
	sc.call.reset()
	return err
}

// queryResponse is the wire edge of the query pipeline: decode, the
// pipeline, encode. It returns the complete response payload (success or
// typed error) backed by sc.out. The correlation ID travels in the body,
// so the pipeline begins after the decode.
//
//svt:hotpath
func (c *wireConn) queryResponse(sc *wireScratch, reqID uint64, body []byte) []byte {
	if err := wire.DecodeQueryBody(body, &sc.req); err != nil {
		return sc.errorPayload(reqID, failure{CodeBadRequest, "bad query body: " + err.Error(), 0})
	}
	q := &sc.call
	c.srv.queries.begin(q, string(sc.req.Corr), c.tpID)
	defer q.root.End()
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
	res, f := c.srv.queries.run(q, string(sc.req.Session), items)
	if f.code != "" {
		return sc.errorPayload(reqID, f)
	}
	es := q.root.StartChild("encode")
	wres := sc.wres[:0]
	if cap(wres) < len(res.Results) {
		wres = make([]wire.Result, 0, len(res.Results))
	}
	for i := range res.Results {
		r := &res.Results[i]
		wres = append(wres, wire.Result{
			Above:         r.Above,
			Numeric:       r.Numeric,
			FromSynthetic: r.FromSynthetic,
			Exhausted:     r.Exhausted,
			Value:         r.Value,
		})
	}
	sc.wres = wres
	sc.corr = append(sc.corr[:0], q.corr...)
	out := wire.AppendHeader(sc.out[:0], wire.OpQueryOK, reqID)
	out = wire.AppendQueryOKBody(out, sc.corr, res.Halted, res.Remaining, wres)
	sc.out = out[:0]
	es.End()
	return out
}

// writeFrame writes one response frame from the reader goroutine (inline
// path), flushing unless pipelined responses are still in flight.
//
//svt:hotpath
func (c *wireConn) writeFrame(payload []byte) error {
	c.wmu.Lock()
	err := wire.WriteFrame(c.bw, payload)
	if err == nil && c.inflight.Load() == 0 {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	return err
}

// finishJob writes one pipelined response, flushing when it was the last
// in flight.
//
//svt:hotpath
func (c *wireConn) finishJob(payload []byte) error {
	c.wmu.Lock()
	err := wire.WriteFrame(c.bw, payload)
	if c.inflight.Add(-1) == 0 && err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	return err
}

// writeError writes an error frame outside the normal response path (bad
// framing, rate limit, handshake failures), logging a failed write rather
// than surfacing it — the connection is being torn down anyway.
func (c *wireConn) writeError(payload []byte) {
	if err := c.writeFrame(payload); err != nil {
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

func (c *wireConn) handleCreate(sc *wireScratch, reqID uint64, body []byte) error {
	var params CreateParams
	if err := json.Unmarshal(body, &params); err != nil {
		c.srv.tel.count(wireOpCreateIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, failure{CodeBadRequest, "bad request body: " + err.Error(), 0}))
	}
	// The tenant comes from the hello handshake, never the body — the
	// same rule as the HTTP header.
	params.Tenant = c.tenant
	s, err := c.srv.mgr.Create(params)
	var out []byte
	if err != nil {
		out = sc.errorPayload(reqID, classify(err, ""))
	} else {
		out = sc.jsonPayload(wire.OpCreateOK, reqID, CreateResponse{
			SessionStatus: s.Status(),
			TTLSeconds:    s.ttl.Seconds(),
		})
	}
	c.srv.tel.count(wireOpCreateIdx, out[0] != wire.OpError)
	return c.writeFrame(out)
}

func (c *wireConn) handleStatus(sc *wireScratch, reqID uint64, body []byte) error {
	id, err := wire.DecodeIDBody(body)
	if err != nil {
		c.srv.tel.count(wireOpStatusIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, failure{CodeBadRequest, err.Error(), 0}))
	}
	s, ok := c.srv.mgr.Get(string(id))
	if !ok {
		c.srv.tel.count(wireOpStatusIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, noSuchSession(string(id))))
	}
	out := sc.jsonPayload(wire.OpStatusOK, reqID, s.Status())
	c.srv.tel.count(wireOpStatusIdx, out[0] != wire.OpError)
	return c.writeFrame(out)
}

func (c *wireConn) handleDelete(sc *wireScratch, reqID uint64, body []byte) error {
	id, err := wire.DecodeIDBody(body)
	if err != nil {
		c.srv.tel.count(wireOpDeleteIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, failure{CodeBadRequest, err.Error(), 0}))
	}
	if !c.srv.mgr.Delete(string(id)) {
		c.srv.tel.count(wireOpDeleteIdx, false)
		return c.writeFrame(sc.errorPayload(reqID, noSuchSession(string(id))))
	}
	out := wire.AppendHeader(sc.out[:0], wire.OpDeleteOK, reqID)
	sc.out = out[:0]
	c.srv.tel.count(wireOpDeleteIdx, true)
	return c.writeFrame(out)
}

func (c *wireConn) handleMechanisms(sc *wireScratch, reqID uint64) error {
	out := sc.jsonPayload(wire.OpMechanismsOK, reqID,
		MechanismsResponse{Mechanisms: c.srv.mgr.Mechanisms()})
	c.srv.tel.count(wireOpMechanismsIdx, out[0] != wire.OpError)
	return c.writeFrame(out)
}
