package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// APIConfig bounds what the HTTP layer accepts. The zero value applies
// the defaults.
type APIConfig struct {
	// MaxBodyBytes caps request bodies; 0 means DefaultMaxBodyBytes.
	// Oversized bodies get 413.
	MaxBodyBytes int64
	// MaxBatch caps the number of queries in one batch request; 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// Telemetry, when set, instruments every request (route latency,
	// status classes, in-flight, body bytes) and serves the registry's
	// Prometheus exposition on GET /metrics. The registry must be the same
	// one given to the manager so one scrape covers all layers.
	Telemetry *telemetry.Registry
	// SlowQueryThreshold, when positive, times every /query request and
	// logs a structured trace line (trace ID, session, mechanism, batch
	// size, journal wait) for requests at or over the threshold. Zero
	// disables the timing entirely.
	SlowQueryThreshold time.Duration
	// Logger receives slow-query trace lines; nil means slog.Default().
	Logger *slog.Logger
	// Tracer, when set, head-samples /query requests into span trees and
	// serves them on GET /v1/traces and GET /v1/traces/{id}. Give the same
	// Tracer to the manager (ManagerConfig.Tracer) so its spans join the
	// HTTP span under one tree. Nil disables tracing and the endpoints.
	Tracer *trace.Tracer
}

// Defaults for APIConfig zero values.
const (
	DefaultMaxBodyBytes = 1 << 20 // 1 MiB: a pmw histogram of ~65k buckets still fits
	DefaultMaxBatch     = 1024
)

// API serves the session manager over JSON HTTP:
//
//	GET    /v1/mechanisms          registry-driven mechanism discovery with
//	                               capability flags
//	POST   /v1/sessions            create  {mechanism, epsilon, maxPositives, threshold, ...}
//	GET    /v1/sessions/{id}       status: answered, positives, remaining, (ε₁, ε₂, ε₃)
//	POST   /v1/sessions/{id}/query one query {query, threshold} / {buckets}
//	                               or a batch {queries: [...]}
//	DELETE /v1/sessions/{id}       end the session
//	GET    /v1/stats               service-wide aggregate counters
//	GET    /healthz                liveness
//
// Every response, including every error, is JSON. Errors carry a stable
// machine-readable code alongside the human-readable message.
type API struct {
	mgr *SessionManager
	cfg APIConfig
	mux *http.ServeMux

	// encodeFailures counts responses whose JSON encode or write failed
	// after the status header was already out (the client usually went
	// away mid-response). Surfaced in GET /v1/stats: a silently truncated
	// response is otherwise invisible.
	encodeFailures atomic.Uint64

	// tel is nil when the API runs without a telemetry registry; ServeHTTP
	// then degenerates to a bare mux dispatch.
	tel *apiTelemetry
	// queries is the /query path shared with the wire edge.
	queries queryPipeline

	// logf emits operational warnings; swappable in tests.
	logf func(format string, args ...any)
}

// NewAPI wraps the manager. The manager must outlive the API.
func NewAPI(mgr *SessionManager, cfg APIConfig) *API {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	a := &API{mgr: mgr, cfg: cfg, mux: http.NewServeMux(), logf: log.Printf}
	a.queries = queryPipeline{
		mgr: mgr, tracer: cfg.Tracer, edge: "http", route: "/v1/sessions/{id}/query",
		maxBatch: cfg.MaxBatch, slowNanos: int64(cfg.SlowQueryThreshold), slow: cfg.Logger,
	}
	if a.queries.slow == nil {
		a.queries.slow = slog.Default()
	}
	patterns := []string{
		"/v1/mechanisms",
		"/v1/sessions",
		"/v1/sessions/{id}",
		"/v1/sessions/{id}/query",
		"/v1/stats",
		"/healthz",
		"/",
	}
	a.mux.HandleFunc("/v1/mechanisms", a.handleMechanisms)
	a.mux.HandleFunc("/v1/sessions", a.handleSessions)
	a.mux.HandleFunc("/v1/sessions/{id}", a.handleSession)
	a.mux.HandleFunc("/v1/sessions/{id}/query", a.handleQuery)
	a.mux.HandleFunc("/v1/stats", a.handleStats)
	a.mux.HandleFunc("/healthz", a.handleHealth)
	a.mux.HandleFunc("/", a.handleNotFound)
	if cfg.Tracer != nil {
		a.mux.HandleFunc("/v1/traces", a.handleTraces)
		a.mux.HandleFunc("/v1/traces/{id}", a.handleTrace)
		patterns = append(patterns, "/v1/traces", "/v1/traces/{id}")
	}
	if cfg.Telemetry != nil {
		a.mux.Handle("/metrics", cfg.Telemetry.Handler())
		patterns = append(patterns, "/metrics")
		a.tel = a.registerAPITelemetry(cfg.Telemetry, patterns)
	}
	return a
}

// ServeHTTP implements http.Handler. With the manager's admission gate
// armed, every /v1/ request is first charged to its X-Tenant's rate-limit
// bucket, then takes one of the HTTP edge's in-flight slots; /healthz and
// /metrics bypass both, so an overloaded server stays observable. With
// telemetry attached it wraps the dispatch in the instrumentation
// envelope: in-flight gauge, pooled status capture, and a sampled
// route-latency observation keyed by the mux pattern the request actually
// matched.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g := &a.mgr.gate; g.on && strings.HasPrefix(r.URL.Path, "/v1/") {
		f := g.limit(r.Header.Get(TenantHeader))
		if f.code == "" {
			f = g.enter(edgeHTTP)
		}
		if f.code != "" {
			a.writeError(w, f)
			return
		}
		defer g.leave(edgeHTTP)
	}
	t := a.tel
	if t == nil {
		a.mux.ServeHTTP(w, r)
		return
	}
	var start int64
	sampled := t.tick.Add(1)&(querySamplePeriod-1) == 0
	if sampled {
		start = telemetry.Now()
	}
	t.inFlight.Add(1)
	sw := swPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.status, sw.bytes, sw.exemplar = w, 0, 0, ""
	a.mux.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	respBytes, exemplar := sw.bytes, sw.exemplar
	sw.ResponseWriter = nil // drop the request-scoped writer before pooling
	swPool.Put(sw)
	t.inFlight.Add(-1)
	t.observe(r.Pattern, status, r.ContentLength, respBytes, start, sampled, exemplar)
}

// ErrorBody is the uniform error response envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable code plus a message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used by the API.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTooLarge         = "too_large"
	CodeTooManySessions  = "too_many_sessions"
	CodeStoreFailure     = "store_failure"
	CodeRateLimited      = "rate_limited"
	// CodeUnavailable marks a typed, retryable condition: a journal
	// append that exceeded ManagerConfig.JournalDeadline, or load
	// shedding at ManagerConfig.MaxInFlight. Always delivered as HTTP 503
	// with a Retry-After header (and on the wire as an error frame with
	// RetryAfterSeconds), so clients know to back off and try again.
	CodeUnavailable = "unavailable"
)

// DefaultRetryAfterSeconds is the retry hint attached to 503 responses
// that have no better estimate (shedding clears as soon as in-flight
// load drains; a stalled store usually recovers or pages an operator).
const DefaultRetryAfterSeconds = 1

// httpStatus is the HTTP status each error code is served with.
var httpStatus = map[string]int{
	CodeBadRequest:       http.StatusBadRequest,
	CodeNotFound:         http.StatusNotFound,
	CodeMethodNotAllowed: http.StatusMethodNotAllowed,
	CodeTooLarge:         http.StatusRequestEntityTooLarge,
	CodeTooManySessions:  http.StatusTooManyRequests,
	CodeRateLimited:      http.StatusTooManyRequests,
	CodeStoreFailure:     http.StatusServiceUnavailable,
	CodeUnavailable:      http.StatusServiceUnavailable,
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// writeError renders a failure: the status httpStatus maps its code to, a
// Retry-After header when it carries a retry hint, and the ErrorBody.
func writeError(w http.ResponseWriter, f failure) error {
	if f.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatUint(f.retryAfter, 10))
	}
	return writeJSON(w, httpStatus[f.code], ErrorBody{ErrorDetail{Code: f.code, Message: f.msg}})
}

// writeJSON is the API's counting variant: an encode or write failure can
// only happen after the status header is out, so the response is silently
// truncated from the client's point of view — count it and log it rather
// than swallowing it.
func (a *API) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := writeJSON(w, status, v); err != nil {
		a.countEncodeFailure(err)
	}
}

func (a *API) writeError(w http.ResponseWriter, f failure) {
	if err := writeError(w, f); err != nil {
		a.countEncodeFailure(err)
	}
}

func (a *API) countEncodeFailure(err error) {
	a.encodeFailures.Add(1)
	a.logf("server: response encode/write failed (response truncated): %v", err)
}

// bodyFailure classifies a failed request-body read or decode. It lives
// outside the //svt:hotpath scope on purpose: a request that trips the
// body cap is already off the fast path, so it may pay for fmt.
func (a *API) bodyFailure(err error) failure {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return failure{CodeTooLarge, fmt.Sprintf("request body exceeds %d bytes", a.cfg.MaxBodyBytes), 0}
	}
	return failure{CodeBadRequest, "bad request body: " + err.Error(), 0}
}

// decodeBody decodes one JSON value, enforcing the body-size cap and
// rejecting anything but whitespace after it. It writes the error
// response itself and reports success.
func (a *API) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, a.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		a.writeError(w, a.bodyFailure(err))
		return false
	}
	// More would miss a stray '}' or ']': it reports false before a
	// closing delimiter. Only io.EOF proves nothing follows.
	if _, err := dec.Token(); err != io.EOF {
		f := failure{CodeBadRequest, "trailing data after JSON body", 0}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			f = a.bodyFailure(err)
		}
		a.writeError(w, f)
		return false
	}
	return true
}

func (a *API) handleNotFound(w http.ResponseWriter, r *http.Request) {
	a.writeError(w, failure{CodeNotFound, "no such endpoint: " + r.URL.Path, 0})
}

func (a *API) methodNotAllowed(w http.ResponseWriter, want string) {
	w.Header().Set("Allow", want)
	a.writeError(w, failure{CodeMethodNotAllowed, want + " required", 0})
}

// CreateResponse is the POST /v1/sessions response body.
type CreateResponse struct {
	SessionStatus
	// TTLSeconds is the resolved idle time-to-live.
	TTLSeconds float64 `json:"ttlSeconds"`
}

func (a *API) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		a.methodNotAllowed(w, http.MethodPost)
		return
	}
	var params CreateParams
	if !a.decodeBody(w, r, &params) {
		return
	}
	// The tenant comes from the request header, never the body: the field
	// is how the gateway's authentication identifies the caller, so letting
	// the body set it would let one tenant book sessions against another.
	params.Tenant = r.Header.Get(TenantHeader)
	s, err := a.mgr.Create(params)
	if err != nil {
		a.writeError(w, classify(err, ""))
		return
	}
	a.writeJSON(w, http.StatusCreated, CreateResponse{
		SessionStatus: s.Status(),
		TTLSeconds:    s.ttl.Seconds(),
	})
}

func (a *API) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		s, ok := a.mgr.Get(id)
		if !ok {
			a.writeError(w, noSuchSession(id))
			return
		}
		a.writeJSON(w, http.StatusOK, s.Status())
	case http.MethodDelete:
		if !a.mgr.Delete(id) {
			a.writeError(w, noSuchSession(id))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		a.methodNotAllowed(w, "GET, DELETE")
	}
}

// queryRequest accepts either a single inline query or a batch. A batch
// is recognized by the presence of the "queries" key.
type queryRequest struct {
	QueryItem
	Queries []QueryItem `json:"queries"`
}

// queryScratch is the per-request working set of the /query hot path,
// recycled through queryPool so the steady state allocates neither request
// buffers, decoded items, result slices nor response buffers, whatever
// the batch size. decode fills the three arenas: items (the top-level
// object's own query first, then a batch's), their thresholds and their
// buckets. req is the decode target of json.Unmarshal for any body not in
// the canonical shape. A pooled scratch holds at most MaxBatch+1 items;
// the bucket arena, like buf, is bounded by the body cap.
type queryScratch struct {
	req        queryRequest
	items      []QueryItem
	thresholds []float64
	buckets    []int
	buf        []byte // body read, then reused for the response encode
	call       queryCall
}

var queryPool = sync.Pool{New: func() any {
	return &queryScratch{buf: make([]byte, 0, 512)}
}}

// readBody slurps the request body into buf's backing array, growing it as
// needed (the MaxBytesReader wrapper bounds the total).
//
//svt:hotpath
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleQuery is the HTTP edge of the query pipeline: pooled scratch in,
// the body decoded into the scratch's arenas (by hand for the canonical
// shape, by json.Unmarshal otherwise), the pipeline, and a hand-rolled
// response encode into a recycled buffer.
//
//svt:hotpath
func (a *API) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		a.methodNotAllowed(w, http.MethodPost)
		return
	}
	sc := queryPool.Get().(*queryScratch)
	defer func() {
		sc.req = queryRequest{} // drop decoded pointers; keeps nothing alive
		clear(sc.items)
		sc.call.reset()
		queryPool.Put(sc)
	}()
	// Correlation comes from the headers, so the pipeline starts before the
	// decode and every response — errors included — carries X-Request-Id.
	// The canonical-form key matters: Header.Get on a non-canonical key
	// ("traceparent") pays a per-call canonicalization allocation.
	q := &sc.call
	tp, _, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
	a.queries.begin(q, r.Header.Get("X-Request-Id"), tp)
	defer q.root.End()
	w.Header().Set("X-Request-Id", q.corr)
	if q.root != nil {
		w.Header().Set("Traceparent", trace.FormatTraceparent(q.root.TraceID(), q.root.SpanID()))
		if sw, ok := w.(*statusWriter); ok {
			sw.exemplar = q.root.TraceIDString()
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, a.cfg.MaxBodyBytes)
	body, err := readBody(r.Body, sc.buf[:0])
	sc.buf = body[:0]
	var items []QueryItem
	if err == nil {
		items, err = sc.decode(body, a.cfg.MaxBatch)
	}
	if err != nil {
		a.writeError(w, a.bodyFailure(err))
		return
	}
	res, f := a.queries.run(q, r.PathValue("id"), items)
	if f.code != "" {
		a.writeError(w, f)
		return
	}
	es := q.root.StartChild("encode")
	defer es.End()
	out, ok := appendBatchResultJSON(sc.buf[:0], &res)
	sc.buf = out[:0]
	if !ok {
		// A non-finite released value cannot be represented in JSON; fall
		// back to the stdlib path so the failure is accounted the same way
		// it always was.
		a.writeJSON(w, http.StatusOK, res)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, werr := w.Write(out); werr != nil {
		a.countEncodeFailure(werr)
	}
}

// appendBatchResultJSON encodes a BatchResult exactly as encoding/json
// would (field order, omitempty semantics, trailing newline) without
// reflection or allocation. It reports ok=false on non-finite floats,
// which JSON cannot carry; callers fall back to the stdlib encoder.
//
//svt:hotpath
func appendBatchResultJSON(buf []byte, res *BatchResult) ([]byte, bool) {
	buf = append(buf, `{"results":[`...)
	for i := range res.Results {
		r := &res.Results[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"above":`...)
		buf = strconv.AppendBool(buf, r.Above)
		if r.Numeric {
			buf = append(buf, `,"numeric":true`...)
		}
		if r.Value != 0 {
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				return buf, false
			}
			buf = append(buf, `,"value":`...)
			buf = appendJSONFloat(buf, r.Value)
		}
		if r.FromSynthetic {
			buf = append(buf, `,"fromSynthetic":true`...)
		}
		if r.Exhausted {
			buf = append(buf, `,"exhausted":true`...)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, `],"halted":`...)
	buf = strconv.AppendBool(buf, res.Halted)
	buf = append(buf, `,"remaining":`...)
	buf = strconv.AppendInt(buf, int64(res.Remaining), 10)
	buf = append(buf, '}', '\n')
	return buf, true
}

// appendJSONFloat formats a finite float64 with encoding/json's exact
// rules: shortest round-trip form, 'f' notation in the human range, 'e'
// notation outside it with the exponent's leading zero trimmed.
//
//svt:hotpath
func appendJSONFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-09" to "e-9" (negative exponents only).
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// MechanismsResponse is the GET /v1/mechanisms response body.
type MechanismsResponse struct {
	Mechanisms []MechanismInfo `json:"mechanisms"`
}

func (a *API) handleMechanisms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		a.methodNotAllowed(w, http.MethodGet)
		return
	}
	a.writeJSON(w, http.StatusOK, MechanismsResponse{Mechanisms: a.mgr.Mechanisms()})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		a.methodNotAllowed(w, http.MethodGet)
		return
	}
	st := a.mgr.Stats()
	st.EncodeFailures = a.encodeFailures.Load()
	a.writeJSON(w, http.StatusOK, st)
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok" or "unhealthy".
	Status string `json:"status"`
	// Reason explains an unhealthy status; absent when healthy.
	Reason string `json:"reason,omitempty"`
	// SnapshotAgeSeconds is how long ago the last journal-compaction
	// snapshot succeeded. Absent (not 0) before the first success, so a
	// freshly booted node is distinguishable from one snapshotting right
	// now; a growing value on a node configured to snapshot means
	// compaction has stopped and the journal is growing unboundedly.
	SnapshotAgeSeconds *float64 `json:"snapshotAgeSeconds,omitempty"`
}

// handleHealth reports liveness, degrading to 503 with a machine-readable
// reason when the store has entered its failed state or the most recent
// journal-compaction snapshot failed — both conditions where the process
// still answers queries but an operator needs to act before disk or
// durability runs out.
func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		a.methodNotAllowed(w, http.MethodGet)
		return
	}
	resp := HealthResponse{Status: "ok"}
	if age, ok := a.mgr.SnapshotAge(); ok {
		secs := age.Seconds()
		resp.SnapshotAgeSeconds = &secs
	}
	if ok, reason := a.mgr.HealthStatus(); !ok {
		resp.Status, resp.Reason = "unhealthy", reason
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfterSeconds))
		a.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	a.writeJSON(w, http.StatusOK, resp)
}
