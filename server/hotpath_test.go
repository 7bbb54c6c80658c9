package server

// Hot-path regression tests for the PR 5 perf work: the hand-rolled
// /query response encoder must be byte-identical to encoding/json, the
// encode-failure counter must surface truncated responses, the query hot
// path's allocation budget is pinned, and group commit must preserve the
// journal-before-response invariant under concurrency and crash.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// TestBatchResultEncodingMatchesStdlib: the pooled encoder's output must
// be indistinguishable from what clients have always parsed.
func TestBatchResultEncodingMatchesStdlib(t *testing.T) {
	cases := []BatchResult{
		{Results: []QueryResult{}, Halted: false, Remaining: 3},
		{Results: []QueryResult{{Above: false}}, Remaining: 100},
		{Results: []QueryResult{{Above: true}}, Halted: true, Remaining: 0},
		{Results: []QueryResult{
			{Above: true, Numeric: true, Value: 12.75},
			{Above: false, FromSynthetic: true},
			{Above: true, Exhausted: true, Numeric: true, Value: -3.5e-9},
			{Above: false, Numeric: true, Value: 1e21},
			{Above: false, Numeric: true, Value: -1e-7},
			{Above: false, Numeric: true, Value: 0}, // zero value is omitted
			{Above: true, Numeric: true, Value: 0.30000000000000004},
		}, Halted: false, Remaining: 42},
	}
	for i, res := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(res); err != nil {
			t.Fatal(err)
		}
		got, ok := appendBatchResultJSON(nil, &res)
		if !ok {
			t.Fatalf("case %d: encoder refused finite values", i)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d: encoding diverged:\n got  %s\n want %s", i, got, want.Bytes())
		}
	}
	// Non-finite values cannot be represented; the encoder must signal the
	// fallback rather than emit invalid JSON.
	bad := BatchResult{Results: []QueryResult{{Numeric: true, Value: math.NaN()}}}
	if _, ok := appendBatchResultJSON(nil, &bad); ok {
		t.Fatal("NaN encoded as JSON")
	}
	bad.Results[0].Value = math.Inf(1)
	if _, ok := appendBatchResultJSON(nil, &bad); ok {
		t.Fatal("Inf encoded as JSON")
	}
}

// failingWriter drops the connection after the header, like a client that
// went away mid-response.
type failingWriter struct {
	h http.Header
}

func (w *failingWriter) Header() http.Header         { return w.h }
func (w *failingWriter) Write(p []byte) (int, error) { return 0, errors.New("broken pipe") }
func (w *failingWriter) WriteHeader(int)             {}

// TestEncodeFailuresCounted: a failed response write is counted and
// surfaced in /v1/stats instead of silently truncating.
func TestEncodeFailuresCounted(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	api := NewAPI(m, APIConfig{})
	api.logf = func(string, ...any) {}
	s, err := m.Create(CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 10})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/query",
		strings.NewReader(`{"query":1,"threshold":1e12}`))
	api.ServeHTTP(&failingWriter{h: make(http.Header)}, req)

	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.EncodeFailures == 0 {
		t.Fatal("failed response write not counted in /v1/stats")
	}
}

// queryAllocs measures the steady-state allocations of one single-query
// POST through the full handler stack (mux, decode, session, journal,
// encode) using a pre-built request and a discarding writer, so the number
// is the SERVER's allocation budget, not the harness's.
func queryAllocs(t *testing.T, m *SessionManager, cfg APIConfig) float64 {
	t.Helper()
	return postAllocs(t, m, cfg, CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12),
	}, []byte(`{"query":1}`))
}

// postAllocs creates a session from p and measures the steady-state
// allocations of one /query POST of body to it through ServeHTTP.
func postAllocs(t *testing.T, m *SessionManager, cfg APIConfig, p CreateParams, body []byte) float64 {
	t.Helper()
	api := NewAPI(m, cfg)
	s, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	rb := &replayBody{data: body}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/query", rb)
	w := &nullResponseWriter{h: make(http.Header)}
	run := func() {
		rb.off = 0
		req.Body = rb
		w.code = 0
		api.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	run() // warm the pools
	return testing.AllocsPerRun(200, run)
}

// TestQueryHotPathAllocs pins the allocation budget of the single-query
// HTTP path. The seed (PR 4) spent ~20 server-side allocations per
// request before pooling; the hand-rolled body decoder took it from 10
// to the 5 measured today, and the pin leaves one of headroom.
func TestQueryHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, inflating alloc counts; CI pins this in a non-race pass")
	}
	const budget = 6
	t.Run("mem", func(t *testing.T) {
		m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
		defer m.Close()
		if got := queryAllocs(t, m, APIConfig{}); got > budget {
			t.Fatalf("single-query HTTP path allocates %.1f/op, budget %d", got, budget)
		}
	})
	t.Run("wal", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if got := queryAllocs(t, m, APIConfig{}); got > budget {
			t.Fatalf("single-query WAL HTTP path allocates %.1f/op, budget %d", got, budget)
		}
	})
	// Full observability on: telemetry registry across all three layers
	// plus slow-query timing. The instrumented record path must stay
	// within the same pinned budget — that is the telemetry subsystem's
	// zero-allocation contract.
	t.Run("wal+telemetry", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		reg := telemetry.NewRegistry()
		m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		cfg := APIConfig{Telemetry: reg, SlowQueryThreshold: time.Hour}
		if got := queryAllocs(t, m, cfg); got > budget {
			t.Fatalf("instrumented single-query WAL path allocates %.1f/op, budget %d", got, budget)
		}
	})
	// Journal deadline and admission gate armed (the deadline never fires,
	// the cap never trips, the rate limit never rejects): the pooled
	// waiter/timer machinery, the in-flight count and the tenant's bucket
	// must stay inside the same budget — resilience is not allowed to cost
	// the happy path its allocation pin.
	t.Run("wal+deadline", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m, err := Open(ManagerConfig{
			SweepInterval: time.Hour, SnapshotInterval: -1, Store: st, JournalDeadline: time.Minute,
			MaxInFlight: 1 << 20, RateLimit: RateLimitConfig{Rate: 1e12},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if got := queryAllocs(t, m, APIConfig{}); got > budget {
			t.Fatalf("deadline-armed single-query WAL path allocates %.1f/op, budget %d", got, budget)
		}
	})
	// Tracing compiled in but the request not sampled: the sampling
	// decision plus the nil-span plumbing through all three layers must
	// cost nothing. The benchmark requests carry no traceparent or
	// X-Request-Id, so nothing forces the 1-in-2^30 sampler.
	t.Run("wal+telemetry+tracer", func(t *testing.T) {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		reg := telemetry.NewRegistry()
		tracer := trace.New(trace.Config{SampleEvery: 1 << 30})
		m, err := Open(ManagerConfig{
			SweepInterval: time.Hour, SnapshotInterval: -1,
			Store: st, Telemetry: reg, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		cfg := APIConfig{Telemetry: reg, SlowQueryThreshold: time.Hour, Tracer: tracer}
		if got := queryAllocs(t, m, cfg); got > budget {
			t.Fatalf("traced-not-sampled single-query WAL path allocates %.1f/op, budget %d", got, budget)
		}
	})
}

// TestBatchQueryAllocs pins the batch paths at a fixed number of
// allocations per request, whatever the batch size: the body decodes into
// pooled arenas and pmw checks buckets in its engine's bitset. Before
// both, the SVT batch spent 19 and the pmw batch 787.
func TestBatchQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, inflating alloc counts; CI pins this in a non-race pass")
	}
	const budget = 6
	// The SVT batch without per-query thresholds is svtperf's shape; with
	// them, every item also takes a threshold pointer into the arena
	// (83 allocations before).
	for _, c := range []struct{ name, item string }{
		{"svt-64", `{"query":1},`},
		{"svt-64-thresholds", `{"query":1,"threshold":1e12},`},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
			defer m.Close()
			body := `{"queries":[` + strings.TrimSuffix(strings.Repeat(c.item, 64), ",") + `]}`
			got := postAllocs(t, m, APIConfig{}, CreateParams{
				Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12),
			}, []byte(body))
			if got > budget {
				t.Fatalf("64-query SVT batch allocates %.1f/request, budget %d", got, budget)
			}
		})
	}
	t.Run("pmw-64x32", func(t *testing.T) {
		m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
		defer m.Close()
		hist := make([]float64, 4096)
		for i := range hist {
			hist[i] = 10
		}
		got := postAllocs(t, m, APIConfig{}, CreateParams{
			Mechanism: MechPMW, Epsilon: 1, MaxPositives: 8, Threshold: ptr(50), Histogram: hist,
		}, pmwBatchBody(64, 32))
		if got > budget {
			t.Fatalf("64x32-bucket pmw batch allocates %.1f/request, budget %d", got, budget)
		}
	})
}

// pmwBatchBody is a batch of n pmw queries of k distinct buckets each.
func pmwBatchBody(n, k int) []byte {
	b := []byte(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"buckets":[`...)
		for j := 0; j < k; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(i+j*64), 10)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// TestGroupCommitJournalBeforeResponse: under concurrent load on a
// WAL-backed manager, every response that was RELEASED is recoverable from
// a copy of the journal directory taken without any shutdown — the
// process-crash image. Coalescing must never release a response whose
// event is not yet in the kernel's hands.
func TestGroupCommitJournalBeforeResponse(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const sessions, per = 8, 100
	ids := make([]string, sessions)
	for i := range ids {
		s, err := m.Create(CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30, Threshold: ptr(1e12)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := m.Query(id, sureNegative()); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	// Simulate the process crash: copy the journal directory as-is (no
	// Close, no snapshot, no fsync) and recover from the copy.
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2, st2 := openWALManager(t, crash)
	defer st2.Close()
	for _, id := range ids {
		got := mustStatus(t, m2, id)
		if got.Answered != per {
			t.Fatalf("session %s: recovered %d answered queries, want %d (all responses were released)", id, got.Answered, per)
		}
	}
}

// TestHTTPBatchResponseThroughStack: one real end-to-end request with a
// batch body, decoded with the stdlib, so the pooled decode + hand-rolled
// encode path is validated against a normal client's view.
func TestHTTPBatchResponseThroughStack(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	api := NewAPI(m, APIConfig{})
	s, err := m.Create(CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 100})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"queries":[{"query":0,"threshold":1e12},{"query":0,"threshold":1e12},{"query":0,"threshold":-1e12}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var res BatchResult
	dec := json.NewDecoder(rec.Body)
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("trailing data after response: %v", err)
	}
	if len(res.Results) != 3 || res.Results[0].Above || res.Results[1].Above || !res.Results[2].Above {
		t.Fatalf("batch results %+v", res.Results)
	}
	if res.Remaining != 99 {
		t.Fatalf("remaining %d, want 99", res.Remaining)
	}
	// Repeating the request re-uses pooled scratch; results must not bleed.
	req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/query",
		strings.NewReader(`{"query":0,"threshold":1e12}`))
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	var res2 BatchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if len(res2.Results) != 1 || res2.Results[0].Above {
		t.Fatalf("single query after batch: %+v", res2)
	}
}
