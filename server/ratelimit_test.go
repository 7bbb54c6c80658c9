package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/telemetry/promtext"
)

// fakeClock is a manually advanced clock for deterministic bucket math.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLimiter(t *testing.T, cfg RateLimitConfig) (*rateLimiter, *fakeClock) {
	t.Helper()
	rl, err := newRateLimiter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	rl.now = clk.now
	return rl, clk
}

func TestRateLimiterBucketMath(t *testing.T) {
	rl, clk := newTestLimiter(t, RateLimitConfig{Rate: 2, Burst: 4})

	// The burst drains, then the bucket is empty.
	for i := 0; i < 4; i++ {
		if ok, _ := rl.allow("a"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, wait := rl.allow("a")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want within (0, 1s] at 2 req/s", wait)
	}

	// Half a second refills one token at 2 req/s.
	clk.advance(500 * time.Millisecond)
	if ok, _ := rl.allow("a"); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, _ := rl.allow("a"); ok {
		t.Fatal("second request admitted with only one token refilled")
	}

	// Long idle refills to the burst cap, not beyond.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := rl.allow("a"); ok {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d after long idle, want the burst of 4", admitted)
	}
	if got := rl.rejectedBy["a"]; got == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestRateLimiterTenantsAreIndependent(t *testing.T) {
	rl, _ := newTestLimiter(t, RateLimitConfig{Rate: 1, Burst: 1})
	if ok, _ := rl.allow("a"); !ok {
		t.Fatal("tenant a first request rejected")
	}
	if ok, _ := rl.allow("a"); ok {
		t.Fatal("tenant a second request admitted")
	}
	// Tenant b and the default tenant still have their own budgets.
	if ok, _ := rl.allow("b"); !ok {
		t.Fatal("tenant b starved by tenant a")
	}
	if ok, _ := rl.allow(""); !ok {
		t.Fatal("default tenant starved by tenant a")
	}
}

func TestRateLimiterOverflowSharedBucket(t *testing.T) {
	rl, _ := newTestLimiter(t, RateLimitConfig{Rate: 1, Burst: 1})
	rl.maxTenants = 2
	rl.allow("a")
	rl.allow("b")
	// Tenants beyond the cap share the overflow bucket: c consumes it, d is
	// rejected even though d never sent a request before.
	if ok, _ := rl.allow("c"); !ok {
		t.Fatal("first overflow request rejected")
	}
	if ok, _ := rl.allow("d"); ok {
		t.Fatal("overflow tenants do not share a bucket")
	}
}

func TestRateLimiterEvictsIdleTenants(t *testing.T) {
	// Rate 2, Burst 4 → refill-to-full is 2s: a bucket idle that long has
	// refilled to Burst and is indistinguishable from a fresh one.
	rl, clk := newTestLimiter(t, RateLimitConfig{Rate: 2, Burst: 4})
	rl.maxTenants = 2
	rl.allow("a")
	rl.allow("b")
	if got := len(rl.buckets); got != 2 {
		t.Fatalf("tracked tenants = %d, want 2", got)
	}

	// Both slots taken and both tenants active: c lands in overflow.
	rl.allow("c")
	if got := len(rl.buckets); got != 2 {
		t.Fatalf("overflow tenant got a slot: tracked = %d", got)
	}

	// Keep b active while a goes idle past the refill-to-full period; a new
	// tenant must then reclaim a's slot instead of sharing overflow forever.
	clk.advance(1500 * time.Millisecond)
	rl.allow("b")
	clk.advance(600 * time.Millisecond) // a idle 2.1s, b idle 0.6s
	if ok, _ := rl.allow("d"); !ok {
		t.Fatal("new tenant rejected")
	}
	if got := rl.evicted; got != 1 {
		t.Fatalf("evicted = %d, want exactly the idle tenant a", got)
	}
	// d owns a real bucket now: it can burst, which the shared overflow
	// bucket (already drained by c) would not allow.
	for i := 0; i < 3; i++ {
		if ok, _ := rl.allow("d"); !ok {
			t.Fatalf("burst request %d of slot-owning tenant d rejected", i)
		}
	}
	// The active tenant b kept its bucket through the sweeps.
	if ok, _ := rl.allow("b"); !ok {
		t.Fatal("active tenant b was evicted")
	}
}

func TestRateLimiterEvictionPreservesBucketState(t *testing.T) {
	// A tenant idle for LESS than refill-to-full keeps its partial bucket:
	// eviction must never grant tokens early by recreating a fresh bucket.
	rl, clk := newTestLimiter(t, RateLimitConfig{Rate: 1, Burst: 2})
	rl.maxTenants = 8
	rl.allow("a")
	rl.allow("a")
	if ok, _ := rl.allow("a"); ok {
		t.Fatal("burst exceeded")
	}
	clk.advance(1100 * time.Millisecond) // refills 1 of 2 tokens; idle < 2s
	if ok, _ := rl.allow("a"); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, _ := rl.allow("a"); ok {
		t.Fatal("second token granted early: idle bucket was reset, not preserved")
	}
}

// TestRateLimitMiddleware: a manager configured with a rate limit guards
// every /v1/ path of its API and leaves /healthz alone.
func TestRateLimitMiddleware(t *testing.T) {
	mgr := newTestManager(t, ManagerConfig{RateLimit: RateLimitConfig{Rate: 0.001, Burst: 2}})
	wrapped := httptest.NewServer(NewAPI(mgr, APIConfig{}))
	t.Cleanup(wrapped.Close)

	get := func(path, tenant string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, wrapped.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Two burst tokens, then 429 with a JSON body and Retry-After.
	for i := 0; i < 2; i++ {
		resp := get("/v1/stats", "acme")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := get("/v1/stats", "acme")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("429 content type %q, want application/json", ct)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != CodeRateLimited {
		t.Fatalf("error code %q, want %q", body.Error.Code, CodeRateLimited)
	}

	// Another tenant is unaffected.
	other := get("/v1/stats", "globex")
	other.Body.Close()
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d", other.StatusCode)
	}

	// Liveness stays exempt even for the throttled tenant.
	health := get("/healthz", "acme")
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want exempt 200", health.StatusCode)
	}
}

// TestNewRateLimiterRejectsBadConfig: the limiter refuses every invalid
// config, and Open fails with the limiter's error for each one except a
// zero Rate, which Open reads as rate limiting off.
func TestNewRateLimiterRejectsBadConfig(t *testing.T) {
	for _, cfg := range []RateLimitConfig{
		{Rate: 0},
		{Rate: -1},
		{Rate: math.NaN()},
		{Rate: math.Inf(1)},
		{Rate: 1, Burst: 0.5},
		{Rate: 1, Burst: math.Inf(1)},
	} {
		_, err := newRateLimiter(cfg)
		if err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
			continue
		}
		if cfg.Rate == 0 {
			continue
		}
		if _, oerr := Open(ManagerConfig{RateLimit: cfg}); oerr == nil || oerr.Error() != err.Error() {
			t.Errorf("Open with %+v = %v, want %v", cfg, oerr, err)
		}
	}
	m, err := Open(ManagerConfig{RateLimit: RateLimitConfig{Burst: 0.5}})
	if err != nil {
		t.Fatalf("Open with a zero Rate = %v, want rate limiting off", err)
	}
	defer m.Close()
	if m.gate.on {
		t.Fatal("a zero Rate armed the admission gate")
	}
}

// TestRateLimitSharedAcrossEdges: the manager's limiter is one set of
// buckets for both edges. A tenant's HTTP request and wire query draw on
// the same burst, the next request on either edge is rejected, another
// tenant keeps its own budget, and both rejections are counted once in
// GET /v1/stats and svt_http_rate_limited_total. The wire side speaks raw
// frames: an SDK Dial would spend a token on its mechanisms call.
func TestRateLimitSharedAcrossEdges(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newTestManager(t, ManagerConfig{
		Telemetry: reg,
		RateLimit: RateLimitConfig{Rate: 0.001, Burst: 2},
	})
	srv := httptest.NewServer(NewAPI(m, APIConfig{Telemetry: reg}))
	t.Cleanup(srv.Close)
	addr := startWireServer(t, NewWireServer(m, WireConfig{}))
	s := mustCreate(t, m, sparseParams())

	do := func(method, path, tenant, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	query := func(tenant string) *http.Response {
		t.Helper()
		return do(http.MethodPost, "/v1/sessions/"+s.ID()+"/query", tenant, `{"query":0,"threshold":1e12}`)
	}
	acme, globex := dialWire(t, addr, "acme", ""), dialWire(t, addr, "globex", "")

	if resp := query("acme"); resp.StatusCode != http.StatusOK {
		t.Fatalf("acme's first request, over HTTP: status %d, want 200", resp.StatusCode)
	}
	if _, ef := acme.query(s.ID(), "", sureNegativeWire()); ef != nil {
		t.Fatalf("acme's second request, over the wire: %+v, want the burst's second token", ef)
	}
	resp := query("acme")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("acme's third request, over HTTP: status %d, Retry-After %q; want 429 with a retry hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, ef := acme.query(s.ID(), "", sureNegativeWire()); ef == nil || ef.Code != CodeRateLimited {
		t.Fatalf("acme's fourth request, over the wire: %+v, want %s", ef, CodeRateLimited)
	}
	if resp := query("globex"); resp.StatusCode != http.StatusOK {
		t.Fatalf("globex over HTTP: status %d, want 200", resp.StatusCode)
	}
	if _, ef := globex.query(s.ID(), "", sureNegativeWire()); ef != nil {
		t.Fatalf("globex over the wire: %+v, want an answer", ef)
	}

	resp = do(http.MethodGet, "/v1/stats", "observer", "")
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if want := map[string]uint64{"acme": 2}; !reflect.DeepEqual(st.RateLimited, want) {
		t.Fatalf("stats rateLimited = %v, want %v", st.RateLimited, want)
	}
	resp = do(http.MethodGet, "/metrics", "acme", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics for a throttled tenant: status %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(string(body))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, f := range fams {
		if f.Name == "svt_http_rate_limited_total" {
			for _, smp := range f.Samples {
				got[smp.Labels["tenant"]] = smp.Value
			}
		}
	}
	if want := map[string]float64{"acme": 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("svt_http_rate_limited_total = %v, want %v", got, want)
	}
}
