package server

// End-to-end tests for the tracing subsystem: request-ID correlation,
// W3C traceparent handling, and the golden span tree a WAL-backed query
// must produce on either edge (edge root → manager → journal wait → store
// sync, with child durations nesting inside their parents).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/trace"
)

// postQuery sends one single-query POST through the API and returns the
// recorder.
func postQuery(t *testing.T, api *API, id string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/query",
		strings.NewReader(`{"query":0,"threshold":1e12}`))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return len(s) > 0
}

// TestRequestIDAlwaysEchoed: every /query response carries an
// X-Request-Id — the client's own verbatim, or a minted 16-hex one —
// with or without tracing configured, error responses included.
func TestRequestIDAlwaysEchoed(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	api := NewAPI(m, APIConfig{MaxBatch: 2})
	s := mustCreate(t, m, sparseParams())

	rec := postQuery(t, api, s.ID(), nil)
	minted := rec.Header().Get("X-Request-Id")
	if len(minted) != 16 || !isHex(minted) {
		t.Fatalf("minted X-Request-Id %q, want 16 hex chars", minted)
	}
	rec2 := postQuery(t, api, s.ID(), nil)
	if rec2.Header().Get("X-Request-Id") == minted {
		t.Fatal("two requests got the same minted X-Request-Id")
	}

	rec3 := postQuery(t, api, s.ID(), map[string]string{"X-Request-Id": "client-chose-this"})
	if got := rec3.Header().Get("X-Request-Id"); got != "client-chose-this" {
		t.Fatalf("client request ID not echoed verbatim: %q", got)
	}

	for _, tc := range []struct {
		name, session, body string
		status              int
	}{
		{"malformed body", s.ID(), `{"query":`, http.StatusBadRequest},
		{"unknown session", "nope", `{"query":0}`, http.StatusNotFound},
		{"over-cap batch", s.ID(), `{"queries":[{"query":0},{"query":0},{"query":0}]}`, http.StatusRequestEntityTooLarge},
	} {
		for _, sent := range []string{"", "client-" + tc.session} {
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+tc.session+"/query", strings.NewReader(tc.body))
			if sent != "" {
				req.Header.Set("X-Request-Id", sent)
			}
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
			}
			got := rec.Header().Get("X-Request-Id")
			if sent == "" && (len(got) != 16 || !isHex(got)) {
				t.Fatalf("%s: minted X-Request-Id %q, want 16 hex chars", tc.name, got)
			}
			if sent != "" && got != sent {
				t.Fatalf("%s: X-Request-Id %q, want the client's %q", tc.name, got, sent)
			}
		}
	}
}

// TestTraceparentRoundTripThroughAPI: a valid incoming traceparent forces
// sampling, the trace adopts the upstream trace ID, and the response
// echoes a traceparent with OUR fresh span ID; a malformed one is ignored
// per spec — with nothing else forcing it, the request is not traced.
func TestTraceparentRoundTripThroughAPI(t *testing.T) {
	tracer := trace.New(trace.Config{SampleEvery: 1 << 30}) // forced-only
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour, Tracer: tracer})
	defer m.Close()
	api := NewAPI(m, APIConfig{Tracer: tracer})
	s := mustCreate(t, m, sparseParams())

	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rec := postQuery(t, api, s.ID(), map[string]string{"Traceparent": upstream})
	echo := rec.Header().Get("Traceparent")
	id, span, ok := trace.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("echoed traceparent %q does not parse", echo)
	}
	if id.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID not adopted from upstream: %s", id)
	}
	if span.String() == "00f067aa0ba902b7" {
		t.Fatal("echoed traceparent reuses the upstream span ID; this segment must mint its own")
	}
	if _, found := tracer.Lookup(id.String()); !found {
		t.Fatal("forced-by-traceparent request left no retained trace")
	}

	// Malformed traceparent: ignored, and (with no client request ID and a
	// huge sampling period) the request is not traced — no echo.
	rec2 := postQuery(t, api, s.ID(), map[string]string{"Traceparent": "00-zzzz-bad"})
	if got := rec2.Header().Get("Traceparent"); got != "" {
		t.Fatalf("malformed traceparent produced an echo %q", got)
	}
	if got := rec2.Header().Get("X-Request-Id"); len(got) != 16 || !isHex(got) {
		t.Fatalf("untraced request still needs its minted request ID, got %q", got)
	}

	// A client X-Request-Id also forces sampling.
	postQuery(t, api, s.ID(), map[string]string{"X-Request-Id": "forced-by-reqid"})
	if _, found := tracer.Lookup("forced-by-reqid"); !found {
		t.Fatal("forced-by-request-ID request left no retained trace")
	}
}

// findChild returns the first direct child with the given name.
func findChild(n trace.Node, name string) (trace.Node, bool) {
	for _, c := range n.Children {
		if c.Name == name {
			return c, true
		}
	}
	return trace.Node{}, false
}

// TestWALQuerySpanTree is the golden trace test, run over both edges: one
// WAL-backed query under SyncAlways must retain a span tree whose chain
// runs edge root → manager → journal.wait → store.sync, with every
// child's interval nested inside its parent's, decode and encode spans
// beside the manager, and the same shape on both edges. The correlation
// ID each edge returns resolves the tree through GET /v1/traces/{id}.
func TestWALQuerySpanTree(t *testing.T) {
	st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tracer := trace.New(trace.Config{SampleEvery: 1})
	m, err := Open(ManagerConfig{
		SweepInterval:    time.Hour,
		SnapshotInterval: -1,
		Store:            st,
		Tracer:           tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	api := NewAPI(m, APIConfig{Tracer: tracer})
	addr := startWireServer(t, NewWireServer(m, WireConfig{Tracer: tracer}))
	s := mustCreate(t, m, sparseParams())

	edges := []struct {
		root, route string
		// query sends one traced query and returns its correlation ID.
		query func(t *testing.T) string
	}{
		{"http", "/v1/sessions/{id}/query", func(t *testing.T) string {
			return postQuery(t, api, s.ID(), nil).Header().Get("X-Request-Id")
		}},
		{"wire", "wire:query", func(t *testing.T) string {
			qr, ef := dialWire(t, addr, "", "").query(s.ID(), "", sureNegativeWire())
			if ef != nil {
				t.Fatalf("wire query: %+v", ef)
			}
			return string(qr.Corr)
		}},
	}
	shapes := make(map[string]string)
	for _, edge := range edges {
		t.Run(edge.root, func(t *testing.T) {
			reqID := edge.query(t)
			if reqID == "" {
				t.Fatal("no request ID on a traced response")
			}

			// The listing endpoint sees the trace under the edge's route...
			lrec := httptest.NewRecorder()
			api.ServeHTTP(lrec, httptest.NewRequest(http.MethodGet, "/v1/traces?route="+edge.route, nil))
			if lrec.Code != http.StatusOK {
				t.Fatalf("/v1/traces status %d", lrec.Code)
			}
			var listing TracesResponse
			if err := json.Unmarshal(lrec.Body.Bytes(), &listing); err != nil {
				t.Fatal(err)
			}
			if len(listing.Traces) == 0 {
				t.Fatal("/v1/traces listed nothing after a traced query")
			}
			if listing.Traces[0].Spans < 4 {
				t.Fatalf("trace summary counts %d spans, want >= 4", listing.Traces[0].Spans)
			}

			// ...and the detail endpoint serves the tree, addressed by the
			// correlation ID.
			drec := httptest.NewRecorder()
			api.ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+reqID, nil))
			if drec.Code != http.StatusOK {
				t.Fatalf("/v1/traces/{id} status %d: %s", drec.Code, drec.Body.String())
			}
			var v trace.View
			if err := json.Unmarshal(drec.Body.Bytes(), &v); err != nil {
				t.Fatal(err)
			}
			if v.RequestID != reqID || v.Route != edge.route {
				t.Fatalf("trace identity %+v", v)
			}

			// The golden chain. Every hop must exist and nest in its parent.
			if v.Root.Name != edge.root {
				t.Fatalf("root span %q, want %s", v.Root.Name, edge.root)
			}
			nested := func(parent, child trace.Node) {
				t.Helper()
				if child.OffsetNanos < parent.OffsetNanos ||
					child.OffsetNanos+child.DurationNanos > parent.OffsetNanos+parent.DurationNanos {
					t.Fatalf("span %s [%d,+%d] escapes parent %s [%d,+%d]",
						child.Name, child.OffsetNanos, child.DurationNanos,
						parent.Name, parent.OffsetNanos, parent.DurationNanos)
				}
			}
			mgr, ok := findChild(v.Root, "manager")
			if !ok {
				t.Fatalf("no manager span under %s; children: %+v", edge.root, v.Root.Children)
			}
			nested(v.Root, mgr)
			jw, ok := findChild(mgr, "journal.wait")
			if !ok {
				t.Fatalf("no journal.wait span under manager; children: %+v", mgr.Children)
			}
			nested(mgr, jw)
			sync, ok := findChild(jw, "store.sync")
			if !ok {
				t.Fatalf("no store.sync span under journal.wait (SyncAlways flushes every append); children: %+v", jw.Children)
			}
			nested(jw, sync)

			// The edge's work spans ride along.
			if _, ok := findChild(v.Root, "decode"); !ok {
				t.Fatalf("no decode span under %s", edge.root)
			}
			if _, ok := findChild(v.Root, "encode"); !ok {
				t.Fatalf("no encode span under %s", edge.root)
			}
			if _, ok := findChild(mgr, "answer"); !ok {
				t.Fatal("no answer span under manager")
			}
			shape := strings.TrimPrefix(shapeOf(v.Root), edge.root)
			for _, span := range []string{"decode", "manager(answer journal.wait(", "store.sync", "encode"} {
				if !strings.Contains(shape, span) {
					t.Fatalf("tree misses %q in the golden chain: %s", span, shape)
				}
			}
			shapes[edge.root] = shape
		})
	}
	if shapes["http"] != shapes["wire"] {
		t.Fatalf("span tree shapes diverge:\n http %s\n wire %s", shapes["http"], shapes["wire"])
	}

	// An unknown ID 404s.
	nrec := httptest.NewRecorder()
	api.ServeHTTP(nrec, httptest.NewRequest(http.MethodGet, "/v1/traces/deadbeefdeadbeef", nil))
	if nrec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace lookup status %d, want 404", nrec.Code)
	}
}

// shapeOf renders a span tree as a nested name list, the structural
// fingerprint the two edges must share.
func shapeOf(n trace.Node) string {
	var b strings.Builder
	b.WriteString(n.Name)
	if len(n.Children) > 0 {
		b.WriteString("(")
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(shapeOf(c))
		}
		b.WriteString(")")
	}
	return b.String()
}
