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
// the two edges cannot drift apart.
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
	// corr is the caller's correlation ID, or the one minted for it.
	corr string
	// root and decode are the request's root span and its decode child,
	// both nil unless the request is trace-sampled.
	root, decode *trace.Span
	trace        QueryTrace
	// results is the recycled result slice the manager answers into.
	results []QueryResult
}

// reset drops the request-scoped pointers so a pooled call pins no trace.
func (q *queryCall) reset() {
	q.corr, q.root, q.decode, q.trace = "", nil, nil, QueryTrace{}
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
	if corr == "" {
		corr = newRequestID()
	}
	q.corr, q.root, q.decode = corr, nil, nil
	if p.tracer.Sample(forced) {
		q.root = p.tracer.StartRoot(p.edge, p.route, corr, tp)
		q.decode = q.root.StartChild("decode")
	}
}

// run serves one decoded request: the batch checks, the single manager
// call (journaled before it returns) and the classification of its
// error. The results alias q.results and stay valid until the next run
// on q. A failure with an empty code means success.
//
//svt:hotpath
func (p *queryPipeline) run(q *queryCall, session string, items []QueryItem) (BatchResult, failure) {
	q.decode.End()
	switch n := len(items); {
	case n == 0:
		return BatchResult{}, failure{CodeBadRequest, "empty query batch", 0}
	case n > p.maxBatch:
		return BatchResult{}, p.batchTooLarge(n)
	}
	q.root.SetAttr("session", session)
	q.root.SetAttrInt("batch", int64(len(items)))
	// Only a slow-query threshold or a sampled trace makes the request read
	// the clock and thread a trace through the manager.
	var tr *QueryTrace
	var start int64
	if p.slowNanos > 0 || q.root != nil {
		start = telemetry.Now()
		q.trace = QueryTrace{TraceID: q.corr, Span: q.root}
		tr = &q.trace
	}
	res, err := p.mgr.queryInto(session, items, q.results[:0], tr)
	if p.slowNanos > 0 {
		if dur := telemetry.Now() - start; dur >= p.slowNanos {
			p.logSlowQuery(tr, session, len(items), dur, err)
		}
	}
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
func (p *queryPipeline) logSlowQuery(tr *QueryTrace, id string, batch int, dur int64, err error) {
	attrs := []any{
		slog.String("traceId", tr.TraceID),
		slog.String("session", id),
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
// names the request's session for the not-found message. The two
// journal failures are retryable and carry the default retry hint.
func classify(err error, session string) failure {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return noSuchSession(session)
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
