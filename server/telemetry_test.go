package server

// Observability regression tests: the /metrics exposition must stay valid
// Prometheus text covering all three instrumented layers, /healthz must
// degrade honestly, per-tenant 429 counts must surface, slow-query log
// lines must carry a trace ID, and the whole telemetry surface must be
// race-free under session churn.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/telemetry/promtext"
)

// newTelemetryStack builds a WAL-backed manager and API sharing one
// telemetry registry, the full production wiring.
func newTelemetryStack(t *testing.T, dir string) (*SessionManager, *API, *telemetry.Registry) {
	t.Helper()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg := telemetry.NewRegistry()
	m, err := Open(ManagerConfig{
		SweepInterval:    time.Hour,
		SnapshotInterval: -1,
		Store:            st,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, NewAPI(m, APIConfig{Telemetry: reg}), reg
}

func scrapeMetrics(t *testing.T, api *API) (string, []promtext.Family) {
	t.Helper()
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("GET /metrics content type %q, want %q", ct, telemetry.ContentType)
	}
	fams, err := promtext.Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, rec.Body.String())
	}
	return rec.Body.String(), fams
}

// TestMetricsEndpointGolden drives real traffic through the full stack and
// requires GET /metrics to expose a valid, three-layer exposition of at
// least 15 families.
func TestMetricsEndpointGolden(t *testing.T) {
	m, api, _ := newTelemetryStack(t, t.TempDir())

	// Traffic spanning routes, tenants and status classes.
	create := func(tenant string) string {
		body := strings.NewReader(`{"mechanism":"sparse","epsilon":1,"maxPositives":100}`)
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", body)
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
		}
		var cr CreateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		return cr.ID
	}
	id := create("acme")
	create("")
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/query",
			strings.NewReader(`{"query":0,"threshold":1e12}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	// A positive and a 404 so those counters move too.
	api.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost,
		"/v1/sessions/"+id+"/query", strings.NewReader(`{"query":0,"threshold":-1e12}`)))
	api.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/no/such", nil))
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	text, fams := scrapeMetrics(t, api)
	if len(fams) < 15 {
		t.Fatalf("/metrics exposes %d families, want >= 15", len(fams))
	}
	byName := make(map[string]promtext.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	// One family per layer must exist AND have moved.
	for _, want := range []string{
		"svt_http_requests_total",             // HTTP layer
		"svt_http_request_duration_seconds",   // HTTP histogram
		"svt_http_in_flight_requests",         //
		"svt_query_duration_seconds",          // manager histogram
		"svt_queries_total",                   // manager counters
		"svt_query_positives_total",           //
		"svt_tenant_sessions",                 // tenant gauges
		"svt_tenant_epsilon_spent",            //
		"svt_sessions_live",                   //
		"svt_shed_total",                      // load shedding (per edge)
		"svt_journal_deadline_exceeded_total", // journal-wait deadline
		"svt_snapshot_duration_seconds",       // snapshot timing
		"svt_store_appends_total",             // store layer
		"svt_store_sync_duration_seconds",     //
		"svt_store_commit_batch_events",       //
		"svt_store_append_duration_seconds",   //
		"svt_store_recovery_duration_seconds", //
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	sum := func(name string, match func(map[string]string) bool) float64 {
		var total float64
		for _, s := range byName[name].Samples {
			if match == nil || match(s.Labels) {
				total += s.Value
			}
		}
		return total
	}
	if n := sum("svt_queries_total", nil); n < 21 {
		t.Errorf("svt_queries_total %v, want >= 21", n)
	}
	if n := sum("svt_query_positives_total", nil); n < 1 {
		t.Errorf("svt_query_positives_total %v, want >= 1", n)
	}
	if n := sum("svt_http_requests_total", func(l map[string]string) bool {
		return l["route"] == "/v1/sessions/{id}/query" && l["class"] == "2xx"
	}); n < 21 {
		t.Errorf("2xx query-route requests %v, want >= 21", n)
	}
	if n := sum("svt_http_requests_total", func(l map[string]string) bool {
		return l["class"] == "4xx"
	}); n < 1 {
		t.Errorf("no 4xx requests counted despite the 404 probe")
	}
	if n := sum("svt_tenant_sessions", func(l map[string]string) bool {
		return l["tenant"] == "acme"
	}); n != 1 {
		t.Errorf("svt_tenant_sessions{tenant=acme} = %v, want 1", n)
	}
	if n := sum("svt_store_appends_total", nil); n < 20 {
		t.Errorf("svt_store_appends_total %v, want >= 20", n)
	}
	// Build info belongs to cmd/svtserve; the library registry must not
	// have grown a hidden dependency on it.
	if strings.Contains(text, "svt_build_info") {
		t.Error("svt_build_info leaked into the library-registered families")
	}
}

// TestHealthzDegrades requires /healthz to answer 200 when healthy and 503
// with a machine-readable reason once snapshots fail, in that order.
func TestHealthzDegrades(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	api := NewAPI(m, APIConfig{})
	mustCreate(t, m, sparseParams())

	get := func() (int, HealthResponse) {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var body HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body is not JSON: %v: %s", err, rec.Body.String())
		}
		return rec.Code, body
	}

	if code, body := get(); code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthy /healthz: %d %+v", code, body)
	}
	// The manager snapshots once at open, so a WAL-backed /healthz always
	// reports how stale the recovery baseline is.
	if _, body := get(); body.SnapshotAgeSeconds == nil {
		t.Fatal("healthy /healthz missing snapshotAgeSeconds after the open-time snapshot")
	}

	// Close the store out from under the manager: the next snapshot fails
	// and health must degrade with the reason attached.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotNow(); err == nil {
		t.Fatal("snapshot against a closed store succeeded")
	}
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz: status %d, want 503 (%v)", code, body)
	}
	if body.Status != "unhealthy" || body.Reason == "" {
		t.Fatalf("degraded /healthz body %+v, want unhealthy with a reason", body)
	}
}

// TestRateLimited429PerTenant: rejected tenants must show up by name in
// both GET /v1/stats and the /metrics exposition.
func TestRateLimited429PerTenant(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, Telemetry: reg, RateLimit: RateLimitConfig{Rate: 1, Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	handler := NewAPI(m, APIConfig{Telemetry: reg})

	hammer := func(tenant string, n int) int {
		rejected := 0
		for i := 0; i < n; i++ {
			req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
			if tenant != "" {
				req.Header.Set(TenantHeader, tenant)
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code == http.StatusTooManyRequests {
				rejected++
			}
		}
		return rejected
	}
	if hammer("acme", 10) == 0 || hammer("", 10) == 0 {
		t.Fatal("burst of 10 at rate 1/s was never limited")
	}

	// /metrics is outside /v1/ and must never be throttled.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics throttled: status %d", rec.Code)
	}
	fams, err := promtext.Parse(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, f := range fams {
		if f.Name == "svt_http_rate_limited_total" {
			for _, s := range f.Samples {
				got[s.Labels["tenant"]] = s.Value
			}
		}
	}
	if got["acme"] == 0 || got["default"] == 0 {
		t.Fatalf("svt_http_rate_limited_total per tenant = %v, want acme and default > 0", got)
	}

	// Same numbers through GET /v1/stats, read as a tenant with budget left.
	srec := httptest.NewRecorder()
	sreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	sreq.Header.Set(TenantHeader, "observer")
	handler.ServeHTTP(srec, sreq)
	var st Stats
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RateLimited["acme"] != uint64(got["acme"]) || st.RateLimited["default"] != uint64(got["default"]) {
		t.Fatalf("stats rateLimited %v disagrees with /metrics %v", st.RateLimited, got)
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLogging: requests over the threshold produce a structured
// line carrying the trace ID (the client's, when supplied), the session,
// mechanism, batch size and journal wait; requests under it stay silent.
func TestSlowQueryLogging(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	s := mustCreate(t, m, sparseParams())

	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))

	// Threshold 1ns: everything is slow.
	api := NewAPI(m, APIConfig{SlowQueryThreshold: time.Nanosecond, Logger: logger})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/query",
		strings.NewReader(`{"query":0,"threshold":1e12}`))
	req.Header.Set("X-Request-Id", "trace-123")
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Request-Id"); got != "trace-123" {
		t.Fatalf("X-Request-Id not echoed: %q", got)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &line); err != nil {
		t.Fatalf("slow-query log line is not one JSON object: %v: %q", err, buf.String())
	}
	for k, want := range map[string]any{
		"msg":       "slow query",
		"traceId":   "trace-123",
		"session":   s.ID(),
		"mechanism": string(MechSparse),
		"batch":     float64(1),
	} {
		if line[k] != want {
			t.Errorf("slow log %s = %v, want %v", k, line[k], want)
		}
	}
	if _, ok := line["duration"]; !ok {
		t.Error("slow log line missing duration")
	}
	if _, ok := line["journalWait"]; !ok {
		t.Error("slow log line missing journalWait")
	}

	// No client trace ID: one must be minted for the line.
	before := len(buf.String())
	req2 := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/query",
		strings.NewReader(`{"query":0,"threshold":1e12}`))
	api.ServeHTTP(httptest.NewRecorder(), req2)
	var line2 map[string]any
	if err := json.Unmarshal([]byte(buf.String()[before:]), &line2); err != nil {
		t.Fatal(err)
	}
	if id, _ := line2["traceId"].(string); len(id) != 16 {
		t.Fatalf("generated trace ID %q, want 16 hex chars", line2["traceId"])
	}

	// Threshold 1h: nothing is slow, nothing is logged.
	var quiet syncBuffer
	api2 := NewAPI(m, APIConfig{SlowQueryThreshold: time.Hour, Logger: slog.New(slog.NewJSONHandler(&quiet, nil))})
	api2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost,
		"/v1/sessions/"+s.ID()+"/query", strings.NewReader(`{"query":0,"threshold":1e12}`)))
	if quiet.String() != "" {
		t.Fatalf("fast query logged as slow: %q", quiet.String())
	}
}

// TestStatsAndTelemetryUnderChurn hammers create/query/delete/stats/
// snapshot/scrape concurrently; run under -race this is the data-race
// regression net for the whole telemetry surface.
func TestStatsAndTelemetryUnderChurn(t *testing.T) {
	m, api, reg := newTelemetryStack(t, t.TempDir())

	const workers, iters = 4, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s, err := m.Create(CreateParams{
					Mechanism: MechSparse, Epsilon: 1, MaxPositives: 5,
					Tenant: fmt.Sprintf("tenant-%d", w),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Query(s.ID(), sureNegative()); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					m.Delete(s.ID())
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Stats()
				reg.Expose(nil)
				if i%5 == 0 {
					if err := m.SnapshotNow(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	st := m.Stats()
	if st.TotalQueries != workers*iters {
		t.Fatalf("stats totalQueries %d, want %d", st.TotalQueries, workers*iters)
	}
	if st.Queries[MechSparse] != workers*iters {
		t.Fatalf("stats queries[sparse] %d, want %d", st.Queries[MechSparse], workers*iters)
	}
	if st.Positives[MechSparse] != 0 {
		t.Fatalf("sure-negative workload counted %d positives", st.Positives[MechSparse])
	}
	_, fams := scrapeMetrics(t, api)
	for _, f := range fams {
		if f.Name == "svt_queries_total" {
			var total float64
			for _, s := range f.Samples {
				total += s.Value
			}
			if total != float64(workers*iters) {
				t.Fatalf("svt_queries_total %v, want %d", total, workers*iters)
			}
		}
	}
}

// TestTenantSurvivesRecovery: the tenant attribution set at create must
// come back after a crash-restart, both from the journal tail and from a
// compacted snapshot, or tenant budget gauges silently reset on restart.
func TestTenantSurvivesRecovery(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		name := "journal-only"
		if snapshot {
			name = "snapshotted"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m1, _ := openWALManager(t, dir)
			p := sparseParams()
			p.Tenant = "acme"
			s := mustCreate(t, m1, p)
			mustQuery(t, m1, s.ID(), sureNegative())
			if snapshot {
				if err := m1.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			m1.Close()

			m2, _ := openWALManager(t, dir)
			got, ok := m2.Get(s.ID())
			if !ok {
				t.Fatal("session lost across restart")
			}
			if got.params.Tenant != "acme" {
				t.Fatalf("recovered tenant %q, want %q", got.params.Tenant, "acme")
			}
		})
	}
}
