package server

// Trace retrieval endpoints and request-ID minting. The capture side
// lives in the hot path (the query pipeline starts the root span, the
// manager adds its children in queryInto); this file is the read side —
// the operator asking "what did that slow request actually spend its time
// on" — plus the ID mint both sides share.

import (
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"github.com/dpgo/svt/trace"
)

// newRequestID mints a 16-hex-char request ID for X-Request-Id echoes
// and slow-query log lines when the client did not supply one. Request
// IDs are correlation handles, not secrets: math/rand/v2's per-P ChaCha8
// generator keeps the mint to one string allocation, which is what lets
// the hot path mint on every request.
func newRequestID() string {
	v := rand.Uint64()
	if v == 0 {
		v = 1
	}
	var b [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// TracesResponse is the GET /v1/traces body: recent root spans, newest
// first, with the slowest-per-route reservoir appended.
type TracesResponse struct {
	Traces []trace.Summary `json:"traces"`
}

// handleTraces serves GET /v1/traces: summaries of retained traces,
// filterable with ?route= (exact match), ?minMs= (minimum duration in
// milliseconds) and ?limit= (default 100).
func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		a.methodNotAllowed(w, http.MethodGet)
		return
	}
	q := r.URL.Query()
	var minDur time.Duration
	if s := q.Get("minMs"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 {
			a.writeError(w, failure{CodeBadRequest, "minMs must be a non-negative number", 0})
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 100
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			a.writeError(w, failure{CodeBadRequest, "limit must be a positive integer", 0})
			return
		}
		limit = n
	}
	sums := a.cfg.Tracer.Recent(q.Get("route"), minDur, limit)
	if sums == nil {
		sums = []trace.Summary{} // render [] rather than null
	}
	a.writeJSON(w, http.StatusOK, TracesResponse{Traces: sums})
}

// handleTrace serves GET /v1/traces/{id}: the full span tree for one
// trace, addressed by trace ID or by the X-Request-Id it carried.
func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		a.methodNotAllowed(w, http.MethodGet)
		return
	}
	id := r.PathValue("id")
	v, ok := a.cfg.Tracer.Lookup(id)
	if !ok {
		a.writeError(w, failure{CodeNotFound, "no retained trace: " + id, 0})
		return
	}
	a.writeJSON(w, http.StatusOK, v)
}
