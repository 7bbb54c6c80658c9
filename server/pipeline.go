package server

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// queryPipeline is the query path both serving edges share. An edge
// decodes a request, hands it here and encodes what comes back; the steps
// in between — correlation, head sampling, the batch caps, the manager
// call, the slow-query line and error classification — exist once, so
// the two edges cannot drift apart. HTTP serves each request with run;
// the wire edge calls run's halves, admit and finish, around the one
// journal transaction of its read pass. A request names its session by the
// ID's bytes, held in the edge's scratch: a string of them is made only
// where one is kept, for a sampled trace's attribute, a not-found message
// or the slow-query line.
type queryPipeline struct {
	mgr    *SessionManager
	tracer *trace.Tracer
	// edge and route name the root span and label the trace, so
	// /v1/traces?route= separates the edges.
	edge, route string
	maxBatch    int
	// slowNanos is the slow-query threshold in nanoseconds; 0 disables
	// the timing and the log line.
	slowNanos int64
	slow      *slog.Logger
}

// queryCall is one request's pass through the pipeline. Edges keep it in
// their pooled scratch, so the steady state allocates nothing for it.
type queryCall struct {
	// corr is the caller's correlation ID. Without one, minted is the ID
	// minted for the request, and corr its string once something keeps
	// it (see requestID).
	corr   string
	minted uint64
	// root and decode are the request's root span and its decode child,
	// both nil unless the request is trace-sampled.
	root, decode *trace.Span
	trace        QueryTrace
	// tr is what admit threads through the manager: &trace when the
	// request is trace-sampled or slow-query timing is on, nil otherwise.
	tr *QueryTrace
	// start is when admit passed the request, read only when tr is set.
	start int64
	// results is the recycled result slice the manager answers into.
	results []QueryResult
}

// reset drops the request-scoped pointers so a pooled call pins no trace.
func (q *queryCall) reset() {
	q.corr, q.root, q.decode, q.trace, q.tr = "", nil, nil, QueryTrace{}, nil
}

// requestID returns the request's correlation ID as a string, making the
// string of a minted ID on first use: for a trace root, the HTTP
// X-Request-Id header or the slow-query line.
func (q *queryCall) requestID() string {
	if q.corr == "" {
		var b [16]byte
		q.corr = string(appendRequestID(b[:0], q.minted))
	}
	return q.corr
}

// appendRequestID appends the request's correlation ID to b, without
// making a string of a minted one.
//
//svt:hotpath
func (q *queryCall) appendRequestID(b []byte) []byte {
	if q.corr != "" {
		return append(b, q.corr...)
	}
	return appendRequestID(b, q.minted)
}

// begin correlates and head-samples one request. corr is the caller's
// correlation ID ("" mints one) and tp the trace ID of a valid caller
// traceparent (zero when there is none). A request carrying either is
// always sampled: someone upstream is following it. The decode span
// starts here, so an edge that knows the correlation before its decode
// (HTTP, from headers) calls begin first; the wire edge finds it in the
// body and calls begin right after decoding.
//
//svt:hotpath
func (p *queryPipeline) begin(q *queryCall, corr string, tp trace.TraceID) {
	forced := corr != "" || !tp.IsZero()
	q.corr, q.minted, q.root, q.decode = corr, 0, nil, nil
	if corr == "" {
		q.minted = newRequestID()
	}
	if p.tracer.Sample(forced) {
		q.root = p.tracer.StartRoot(p.edge, p.route, q.requestID(), tp)
		q.decode = q.root.StartChild("decode")
	}
}

// run serves one decoded request as its own journal transaction: admit,
// the single manager call (journaled before it returns), the slow-query
// line and finish. The results alias q.results and stay valid until the
// next run on q. A failure with an empty code means success.
//
//svt:hotpath
func (p *queryPipeline) run(q *queryCall, session []byte, items []QueryItem) (BatchResult, failure) {
	if f := p.admit(q, session, items); f.code != "" {
		return BatchResult{}, f
	}
	res, err := p.mgr.queryInto(session, items, q.results[:0], q.tr)
	if p.slowNanos > 0 {
		if dur := telemetry.Now() - q.start; dur >= p.slowNanos {
			p.logSlowQuery(q, session, len(items), dur, err)
		}
	}
	return p.finish(q, session, res, err)
}

// admit is the pipeline's half before the manager call: it ends the
// decode span, applies the batch caps and records the request's
// attributes. Only a slow-query threshold or a sampled trace makes the
// request read the clock and set q.tr, the trace to thread through the
// manager.
//
//svt:hotpath
func (p *queryPipeline) admit(q *queryCall, session []byte, items []QueryItem) failure {
	q.decode.End()
	switch n := len(items); {
	case n == 0:
		return failure{CodeBadRequest, "empty query batch", 0}
	case n > p.maxBatch:
		return p.batchTooLarge(n)
	}
	if q.root != nil {
		q.root.SetAttr("session", string(session))
		q.root.SetAttrInt("batch", int64(len(items)))
	}
	if p.slowNanos > 0 || q.root != nil {
		q.start = telemetry.Now()
		q.trace = QueryTrace{TraceID: q.corr, Span: q.root}
		q.tr = &q.trace
	}
	return failure{}
}

// finish is the pipeline's half after the manager call: it keeps a grown
// result slice for the next request on q and classifies the error.
//
//svt:hotpath
func (p *queryPipeline) finish(q *queryCall, session []byte, res BatchResult, err error) (BatchResult, failure) {
	if cap(res.Results) > cap(q.results) {
		q.results = res.Results[:0]
	}
	if err != nil {
		return BatchResult{}, classify(err, session)
	}
	return res, failure{}
}

// batchTooLarge formats the over-cap rejection. It lives outside the
// //svt:hotpath scope on purpose: a request that trips the cap is
// already off the fast path, so it may pay for fmt.
func (p *queryPipeline) batchTooLarge(n int) failure {
	return failure{CodeTooLarge, fmt.Sprintf("batch of %d exceeds the cap of %d", n, p.maxBatch), 0}
}

// logSlowQuery emits the structured trace line for a request that ran at
// or over the slow-query threshold. The line carries everything needed to
// chase the latency: the trace ID, the session, its mechanism, the batch
// size, the total duration, and how much of it was spent waiting on the
// WAL group-commit flush.
func (p *queryPipeline) logSlowQuery(q *queryCall, session []byte, batch int, dur int64, err error) {
	tr := q.tr
	attrs := []any{
		slog.String("traceId", q.requestID()),
		slog.String("session", string(session)),
		slog.String("mechanism", string(tr.Mechanism)),
		slog.Int("batch", batch),
		slog.Duration("duration", time.Duration(dur)),
		slog.Duration("journalWait", time.Duration(tr.JournalNanos)),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	p.slow.Warn("slow query", attrs...)
}

// failure is a typed request error as both edges send it: HTTP as a JSON
// ErrorBody with the status httpStatus maps the code to, the wire as an
// error frame.
type failure struct {
	code, msg string
	// retryAfter is the retry hint in seconds (HTTP Retry-After); 0 means
	// none.
	retryAfter uint64
}

// classify maps a manager error to the failure both edges send; session
// names the request's session for the not-found message, the only place
// its string is made. The two journal failures are retryable and carry
// the default retry hint.
func classify(err error, session []byte) failure {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return noSuchSession(string(session))
	case errors.Is(err, ErrTooManySessions):
		return failure{CodeTooManySessions, err.Error(), 0}
	case errors.Is(err, ErrUnavailable):
		return failure{CodeUnavailable, err.Error(), DefaultRetryAfterSeconds}
	case errors.Is(err, ErrStoreAppend):
		return failure{CodeStoreFailure, err.Error(), DefaultRetryAfterSeconds}
	default:
		return failure{CodeBadRequest, err.Error(), 0}
	}
}

func noSuchSession(id string) failure {
	return failure{CodeNotFound, "no such session: " + id, 0}
}
