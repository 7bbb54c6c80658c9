package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// TenantHeader names the HTTP header that identifies the calling tenant for
// rate limiting. Requests without it share the default tenant's bucket.
const TenantHeader = "X-Tenant"

// DefaultMaxTenants caps how many distinct tenant buckets a RateLimiter
// tracks before spillover tenants share one overflow bucket, bounding the
// memory a hostile client can allocate by inventing tenant names.
const DefaultMaxTenants = 16384

// RateLimitConfig configures per-tenant token buckets.
type RateLimitConfig struct {
	// Rate is the sustained request budget per tenant in requests/second.
	// Required, must be positive and finite.
	Rate float64
	// Burst is the bucket depth: how many requests a tenant may send
	// back-to-back after being idle. 0 means max(Rate, 1).
	Burst float64
	// MaxTenants caps tracked tenants; 0 means DefaultMaxTenants.
	MaxTenants int
	// MaxTenantSeries caps how many distinct tenants appear BY NAME in
	// the per-tenant rejection counts (RejectedByTenant, and through it
	// the rate-limit metric labels); rejections for tenants beyond the
	// cap aggregate under OtherTenant. It is deliberately much smaller
	// than MaxTenants: the limiter can afford 16k buckets, but 16k label
	// sets would blow up every scrape and the time series behind them.
	// 0 means DefaultMaxTenantSeries.
	MaxTenantSeries int
}

// tokenBucket is one tenant's refillable budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// RateLimiter applies per-tenant token-bucket admission control to the
// /v1/* API. Each tenant (the X-Tenant header; absent means the default
// tenant) owns an independent bucket refilled continuously at Rate
// requests/second up to Burst. Rejected requests get a JSON 429 with a
// Retry-After header. Liveness endpoints outside /v1/ are never limited.
type RateLimiter struct {
	rate       float64
	burst      float64
	maxTenants int
	maxSeries  int

	mu         sync.Mutex
	buckets    map[string]*tokenBucket
	overflow   tokenBucket
	rejected   uint64
	rejectedBy map[string]uint64
	evicted    uint64
	lastSweep  time.Time

	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewRateLimiter validates cfg and returns a ready limiter.
func NewRateLimiter(cfg RateLimitConfig) (*RateLimiter, error) {
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 0) {
		return nil, fmt.Errorf("server: rate limit must be positive and finite, got %v", cfg.Rate)
	}
	burst := cfg.Burst
	if burst == 0 {
		burst = math.Max(cfg.Rate, 1)
	}
	if !(burst >= 1) || math.IsInf(burst, 0) {
		return nil, fmt.Errorf("server: rate-limit burst must be at least 1 request, got %v", cfg.Burst)
	}
	maxTenants := cfg.MaxTenants
	if maxTenants <= 0 {
		maxTenants = DefaultMaxTenants
	}
	maxSeries := cfg.MaxTenantSeries
	if maxSeries <= 0 {
		maxSeries = DefaultMaxTenantSeries
	}
	return &RateLimiter{
		rate:       cfg.Rate,
		burst:      burst,
		maxTenants: maxTenants,
		maxSeries:  maxSeries,
		buckets:    make(map[string]*tokenBucket),
		rejectedBy: make(map[string]uint64),
		now:        time.Now,
	}, nil
}

// idlePeriod is how long a bucket must sit untouched before eviction: one
// refill-to-full period. An idle-for-that-long bucket has refilled to Burst
// and is indistinguishable from a fresh one, so evicting it changes no
// admission decision — it only returns the tenant slot.
func (rl *RateLimiter) idlePeriod() time.Duration {
	return time.Duration(rl.burst / rl.rate * float64(time.Second))
}

// evictIdle removes buckets idle for at least one refill-to-full period;
// callers hold rl.mu. Without this, MaxTenants distinct tenant names ever
// seen would permanently exhaust the slots and force every NEW tenant into
// the shared overflow bucket.
func (rl *RateLimiter) evictIdle(now time.Time) {
	idle := rl.idlePeriod()
	for tenant, b := range rl.buckets {
		if now.Sub(b.last) >= idle {
			delete(rl.buckets, tenant)
			rl.evicted++
		}
	}
	rl.lastSweep = now
}

// Allow consumes one token from the tenant's bucket, reporting whether the
// request may proceed and, when it may not, how long until a token refills.
func (rl *RateLimiter) Allow(tenant string) (bool, time.Duration) {
	now := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	// Amortized idle-tenant eviction. The cadence is floored at one second:
	// with Burst < Rate the refill-to-full period can be sub-millisecond,
	// and sweeping the whole map under the mutex on every request would
	// serialize the /v1/* hot path. Eviction only needs to happen at LEAST
	// one idle period apart, not that often.
	sweepEvery := rl.idlePeriod()
	if sweepEvery < time.Second {
		sweepEvery = time.Second
	}
	if now.Sub(rl.lastSweep) >= sweepEvery {
		rl.evictIdle(now)
	}
	b := rl.buckets[tenant]
	if b == nil {
		if len(rl.buckets) >= rl.maxTenants {
			// Slots full: sweep immediately — the table may be stuffed with
			// idle tenants — and only fall back to the shared overflow
			// bucket if every slot is genuinely active.
			rl.evictIdle(now)
		}
		if len(rl.buckets) >= rl.maxTenants {
			b = &rl.overflow
		} else {
			b = &tokenBucket{tokens: rl.burst, last: now}
			rl.buckets[tenant] = b
		}
	}
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = math.Min(rl.burst, b.tokens+rl.rate*elapsed)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	rl.rejected++
	// Per-tenant rejection attribution. The key space is bounded by the
	// SERIES cap, not the bucket cap: every key here becomes a label set
	// on the rate-limit metric, so once maxSeries distinct tenants hold
	// rejection counts, further new tenants aggregate under OtherTenant
	// rather than letting a hostile client mint unbounded time series.
	// Rejection counts are never evicted — they are cumulative history, and
	// resetting one on idle-eviction would make the /metrics counter go
	// backwards.
	key := tenant
	if key == "" {
		key = "default"
	}
	if _, ok := rl.rejectedBy[key]; !ok && len(rl.rejectedBy) >= rl.maxSeries {
		key = OtherTenant
	}
	rl.rejectedBy[key]++
	wait := time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
	return false, wait
}

// Rejected returns how many requests the limiter has turned away.
func (rl *RateLimiter) Rejected() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.rejected
}

// RejectedByTenant returns a copy of the per-tenant rejection counts. The
// empty tenant is reported as "default"; tenants past the MaxTenantSeries
// cardinality cap are folded into OtherTenant ("_other"). Tenants that
// were never rejected do not appear.
func (rl *RateLimiter) RejectedByTenant() map[string]uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if len(rl.rejectedBy) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(rl.rejectedBy))
	for tenant, n := range rl.rejectedBy {
		out[tenant] = n
	}
	return out
}

// Evicted returns how many idle tenant buckets the limiter has reclaimed.
func (rl *RateLimiter) Evicted() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.evicted
}

// Tenants returns how many tenant buckets are currently tracked.
func (rl *RateLimiter) Tenants() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.buckets)
}

// Middleware wraps next with per-tenant admission control on /v1/* paths.
func (rl *RateLimiter) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		tenant := r.Header.Get(TenantHeader)
		if ok, wait := rl.Allow(tenant); !ok {
			// A failed write means the client is gone; unlike the API,
			// the limiter keeps no encode-failure count.
			_ = writeError(w, rl.rejection(tenant, wait))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// rejection formats a refused request the same way on both edges: the
// rate_limited code, the tenant and its rate, and a retry hint of the
// refill wait rounded up to whole seconds (at least one).
func (rl *RateLimiter) rejection(tenant string, wait time.Duration) failure {
	secs := uint64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if tenant == "" {
		tenant = "default"
	}
	return failure{CodeRateLimited, fmt.Sprintf("tenant %q exceeded %g requests/sec", tenant, rl.rate), secs}
}
