package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestAPI(t *testing.T, mcfg ManagerConfig, acfg APIConfig) (*httptest.Server, *SessionManager) {
	t.Helper()
	mgr := newTestManager(t, mcfg)
	srv := httptest.NewServer(NewAPI(mgr, acfg))
	t.Cleanup(srv.Close)
	return srv, mgr
}

// doJSON posts body (marshalled) and decodes the response into out when
// non-nil, returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, base string, p CreateParams) CreateResponse {
	t.Helper()
	var created CreateResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/sessions", p, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" {
		t.Fatal("create: empty session id")
	}
	return created
}

func TestHTTPSessionLifecycle(t *testing.T) {
	srv, _ := newTestAPI(t, ManagerConfig{}, APIConfig{})
	created := createSession(t, srv.URL, CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 2, Threshold: ptr(1), Seed: 7,
		AnswerFraction: 0.2, TTLSeconds: 120,
	})
	if created.Mechanism != MechSparse || created.Remaining != 2 || created.Halted {
		t.Errorf("create response %+v", created)
	}
	if created.TTLSeconds != 120 {
		t.Errorf("ttl %v, want 120", created.TTLSeconds)
	}
	if math.Abs(created.Budget.Total-1) > 1e-9 || math.Abs(created.Budget.Eps3-0.2) > 1e-9 {
		t.Errorf("budget %+v", created.Budget)
	}

	url := srv.URL + "/v1/sessions/" + created.ID

	// Single query (inline form), then a batch that halts mid-way.
	var res BatchResult
	if code := doJSON(t, http.MethodPost, url+"/query", map[string]any{"query": -1e12}, &res); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if len(res.Results) != 1 || res.Results[0].Above {
		t.Errorf("single query result %+v", res)
	}
	batch := map[string]any{"queries": []map[string]any{
		{"query": 1e12}, {"query": 1e12}, {"query": 1e12},
	}}
	if code := doJSON(t, http.MethodPost, url+"/query", batch, &res); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(res.Results) != 2 || !res.Halted || res.Remaining != 0 {
		t.Errorf("batch result %+v", res)
	}
	// ε₃ numeric releases accompany positive outcomes.
	for _, r := range res.Results {
		if !r.Above || !r.Numeric {
			t.Errorf("positive outcome without numeric release: %+v", r)
		}
	}

	var st SessionStatus
	if code := doJSON(t, http.MethodGet, url, nil, &st); code != http.StatusOK {
		t.Fatalf("status: status %d", code)
	}
	if st.Answered != 3 || st.Positives != 2 || st.Remaining != 0 || !st.Halted {
		t.Errorf("session status %+v", st)
	}

	if code := doJSON(t, http.MethodDelete, url, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, url, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodPost, url+"/query", map[string]any{"query": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("query after delete: %d, want 404", code)
	}
}

// TestHTTPStatusBudgetsAllMechanisms pins the acceptance criterion:
// status reports remaining positives and the (ε₁, ε₂, ε₃) split for
// every servable mechanism.
func TestHTTPStatusBudgetsAllMechanisms(t *testing.T) {
	srv, _ := newTestAPI(t, ManagerConfig{}, APIConfig{})
	cases := []CreateParams{
		{Mechanism: MechSparse, Epsilon: 1.5, MaxPositives: 4, Threshold: ptr(10), Seed: 5},
		{Mechanism: MechProposed, Epsilon: 1.5, MaxPositives: 4, Threshold: ptr(10), Seed: 5},
		{Mechanism: MechDPBook, Epsilon: 1.5, MaxPositives: 4, Threshold: ptr(10), Seed: 5},
		{Mechanism: MechPMW, Epsilon: 1.5, MaxPositives: 4, Threshold: ptr(50),
			Histogram: []float64{100, 100, 100, 100, 500, 100}, Seed: 5},
	}
	for _, p := range cases {
		t.Run(string(p.Mechanism), func(t *testing.T) {
			created := createSession(t, srv.URL, p)
			var st SessionStatus
			if code := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+created.ID, nil, &st); code != http.StatusOK {
				t.Fatalf("status: %d", code)
			}
			if st.Remaining != 4 {
				t.Errorf("remaining %d, want 4", st.Remaining)
			}
			b := st.Budget
			if math.Abs(b.Eps1+b.Eps2+b.Eps3-1.5) > 1e-9 || math.Abs(b.Total-1.5) > 1e-9 {
				t.Errorf("budget %+v does not sum to 1.5", b)
			}
		})
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestAPI(t, ManagerConfig{}, APIConfig{MaxBodyBytes: 4096, MaxBatch: 4})
	readErr := func(resp *http.Response) ErrorBody {
		t.Helper()
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("error content-type %q", ct)
		}
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("error body not JSON: %v", err)
		}
		return eb
	}

	// Unknown endpoint → JSON 404.
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusNotFound || eb.Error.Code != CodeNotFound {
		t.Errorf("unknown endpoint: %d %+v", resp.StatusCode, eb)
	}

	// Wrong method → JSON 405 with Allow.
	resp, err = http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow %q", allow)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusMethodNotAllowed || eb.Error.Code != CodeMethodNotAllowed {
		t.Errorf("wrong method: %d %+v", resp.StatusCode, eb)
	}

	// Malformed JSON → 400.
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
		t.Errorf("malformed JSON: %d %+v", resp.StatusCode, eb)
	}

	// Unknown mechanism → 400.
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateParams{Mechanism: "stoddard", Epsilon: 1, MaxPositives: 1}, nil); code != http.StatusBadRequest {
		t.Errorf("non-private mechanism: %d", code)
	}

	// Invalid ε → 400 with the mechanism's own message.
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"mechanism":"sparse","epsilon":0,"maxPositives":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != CodeBadRequest ||
		eb.Error.Message != "mech: sparse epsilon must be positive and finite, got 0" {
		t.Errorf("epsilon 0: %d %+v", resp.StatusCode, eb)
	}

	// Oversized body → 413.
	big := strings.NewReader(`{"mechanism":"sparse","pad":"` + strings.Repeat("x", 8192) + `"}`)
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	if eb := readErr(resp); resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeTooLarge {
		t.Errorf("oversized body: %d %+v", resp.StatusCode, eb)
	}

	// Over-cap batch → 413; empty batch → 400.
	created := createSession(t, srv.URL, CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 5, Threshold: ptr(1), Seed: 9,
	})
	qurl := srv.URL + "/v1/sessions/" + created.ID + "/query"
	over := queryRequest{Queries: make([]QueryItem, 5)}
	if code := doJSON(t, http.MethodPost, qurl, over, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap batch: %d", code)
	}
	if code := doJSON(t, http.MethodPost, qurl, queryRequest{Queries: []QueryItem{}}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", code)
	}

	// Non-finite query → 400, and the session survives it.
	if code := doJSON(t, http.MethodPost, qurl, map[string]any{"query": "oops"}, nil); code != http.StatusBadRequest {
		t.Errorf("non-numeric query: %d", code)
	}
	if code := doJSON(t, http.MethodPost, qurl, map[string]any{"query": 0.0}, nil); code != http.StatusOK {
		t.Errorf("query after bad request: %d", code)
	}
}

func TestHTTPSessionCap(t *testing.T) {
	srv, _ := newTestAPI(t, ManagerConfig{MaxSessions: 1}, APIConfig{})
	createSession(t, srv.URL, CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1, Threshold: ptr(1)})
	code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1, Threshold: ptr(1)}, nil)
	if code != http.StatusTooManyRequests {
		t.Errorf("over-cap create: %d, want 429", code)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	srv, _ := newTestAPI(t, ManagerConfig{Shards: 4}, APIConfig{})
	for i := 0; i < 3; i++ {
		created := createSession(t, srv.URL, CreateParams{
			Mechanism: MechProposed, Epsilon: 1, MaxPositives: 3, Threshold: ptr(1), Seed: uint64(i + 1),
		})
		var res BatchResult
		if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/query",
			queryRequest{Queries: []QueryItem{{Query: 0}, {Query: 0}}}, &res); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}
	var st Stats
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Live != 3 || st.Created != 3 || st.Queries[MechProposed] != 6 || st.TotalQueries != 6 {
		t.Errorf("stats %+v", st)
	}
	var health HealthResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: %d %+v", code, health)
	}
}

// TestHTTPConcurrentSessions hammers the full HTTP stack — creates,
// queries, status reads, deletes and stats — from many goroutines;
// run with -race.
func TestHTTPConcurrentSessions(t *testing.T) {
	srv, mgr := newTestAPI(t, ManagerConfig{Shards: 8}, APIConfig{})
	const workers = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			created := createSession(t, srv.URL, CreateParams{
				Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1000,
				Threshold: ptr(0.5), Seed: uint64(w + 1),
			})
			url := srv.URL + "/v1/sessions/" + created.ID
			for i := 0; i < 25; i++ {
				var res BatchResult
				if code := doJSON(t, http.MethodPost, url+"/query",
					map[string]any{"query": float64(i)}, &res); code != http.StatusOK {
					t.Errorf("worker %d query %d: status %d", w, i, code)
					return
				}
				if i%10 == 0 {
					doJSON(t, http.MethodGet, url, nil, nil)
					doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil, nil)
				}
			}
			if w%2 == 0 {
				if code := doJSON(t, http.MethodDelete, url, nil, nil); code != http.StatusNoContent {
					t.Errorf("worker %d delete: status %d", w, code)
				}
			}
		}(w)
	}
	wg.Wait()
	st := mgr.Stats()
	if got := st.Queries[MechSparse]; got != uint64(workers*25) {
		t.Errorf("query counter %d, want %d", got, workers*25)
	}
	if st.Live != workers/2 {
		t.Errorf("live %d, want %d", st.Live, workers/2)
	}
	if st.Created != uint64(workers) {
		t.Errorf("created %d, want %d", st.Created, workers)
	}
}

// TestHTTPMechanismsDiscovery pins the registry-driven GET /v1/mechanisms
// endpoint: every registered mechanism appears, sorted, with its
// capability flags, and the endpoint is read-only.
func TestHTTPMechanismsDiscovery(t *testing.T) {
	srv, mgr := newTestAPI(t, ManagerConfig{}, APIConfig{})
	raw, err := http.Get(srv.URL + "/v1/mechanisms")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(raw.Body)
	raw.Body.Close()
	if err != nil || raw.StatusCode != http.StatusOK {
		t.Fatalf("status %d, read error %v", raw.StatusCode, err)
	}
	// The exact listing — names, summaries, flags and their order — as
	// served before the SVT family shared one mech adapter.
	const wantBody = "7e52fb5de2708919129791ad0cbfa169ca1095953724d2f8412cd46a0ce2f606"
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != wantBody {
		t.Errorf("GET /v1/mechanisms body changed (sha256 %x):\n%s", sum, body)
	}
	var resp MechanismsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Mechanisms) != len(mgr.Mechanisms()) || len(resp.Mechanisms) < 5 {
		t.Fatalf("got %d mechanisms, want the registry's %d (≥5 built-ins)", len(resp.Mechanisms), len(mgr.Mechanisms()))
	}
	byName := make(map[string]MechanismInfo, len(resp.Mechanisms))
	for i, mi := range resp.Mechanisms {
		byName[mi.Name] = mi
		if i > 0 && resp.Mechanisms[i-1].Name >= mi.Name {
			t.Errorf("mechanism list not sorted: %q before %q", resp.Mechanisms[i-1].Name, mi.Name)
		}
		if mi.Summary == "" || !mi.Seedable {
			t.Errorf("mechanism %q: missing summary or seedable flag: %+v", mi.Name, mi)
		}
	}
	checks := map[string]MechanismInfo{
		"sparse":   {NumericReleases: true, MonotonicRefinement: true, Seedable: true},
		"esvt":     {MonotonicRefinement: true, Seedable: true},
		"pmw":      {NumericReleases: true, Seedable: true, NeedsHistogram: true},
		"dpbook":   {Seedable: true},
		"proposed": {Seedable: true},
	}
	for name, want := range checks {
		got, ok := byName[name]
		if !ok {
			t.Errorf("mechanism %q missing from discovery", name)
			continue
		}
		got.Summary = ""
		got.Name = ""
		if got != want {
			t.Errorf("%s capabilities %+v, want %+v", name, got, want)
		}
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/mechanisms", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/mechanisms: status %d, want 405", code)
	}
}

// TestStatsQueriesKeyedByRegistry pins the registry-driven per-mechanism
// counters: the key set of stats.queries is exactly the registered
// mechanism list, zero counts included.
func TestStatsQueriesKeyedByRegistry(t *testing.T) {
	srv, mgr := newTestAPI(t, ManagerConfig{}, APIConfig{})
	created := createSession(t, srv.URL, CreateParams{
		Mechanism: Mechanism("esvt"), Epsilon: 1, MaxPositives: 5, Threshold: ptr(0.5), Seed: 3,
	})
	var batch BatchResult
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/query",
		map[string]any{"queries": []map[string]any{{"query": -1e12}, {"query": -1e12}}}, &batch); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	var st Stats
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(st.Queries) != len(mgr.Mechanisms()) {
		t.Fatalf("stats has %d query counters, want one per registered mechanism (%d)", len(st.Queries), len(mgr.Mechanisms()))
	}
	for _, mi := range mgr.Mechanisms() {
		if _, ok := st.Queries[Mechanism(mi.Name)]; !ok {
			t.Errorf("stats missing counter for registered mechanism %q", mi.Name)
		}
	}
	if st.Queries[Mechanism("esvt")] != 2 || st.TotalQueries != 2 {
		t.Errorf("queries %+v totalQueries %d, want esvt=2 total=2", st.Queries, st.TotalQueries)
	}
}
