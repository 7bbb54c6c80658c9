package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TenantHeader names the HTTP header that identifies the calling tenant for
// rate limiting. Requests without it share the default tenant's bucket.
const TenantHeader = "X-Tenant"

// DefaultMaxTenants caps how many distinct tenant buckets the rate limiter
// tracks before spillover tenants share one overflow bucket, bounding the
// memory a hostile client can allocate by inventing tenant names.
const DefaultMaxTenants = 16384

// RateLimitConfig configures per-tenant token buckets
// (ManagerConfig.RateLimit).
type RateLimitConfig struct {
	// Rate is the sustained request budget per tenant in requests/second.
	// 0 disables rate limiting; otherwise it must be positive and finite.
	Rate float64
	// Burst is the bucket depth: how many requests a tenant may send
	// back-to-back after being idle. 0 means max(Rate, 1).
	Burst float64
}

// Serving edges, indexing the admission gate's per-edge counters.
const (
	edgeHTTP = iota
	edgeWire
	edgeCount
)

// admission is the manager's one admission gate for both serving edges:
// the per-tenant rate limiter, one set of buckets whatever edge a request
// arrives on, and the in-flight cap, which each edge counts on its own.
// Open fixes its configuration.
type admission struct {
	// on is false when both halves are off: an edge then pays this one
	// branch per request.
	on bool
	// limiter is nil when rate limiting is off.
	limiter *rateLimiter
	// maxInFlight is each edge's cap; 0 means unlimited.
	maxInFlight int64
	inFlight    [edgeCount]atomic.Int64
	shed        [edgeCount]atomic.Uint64
}

// limit charges tenant one token. A failure with a code is the
// rate_limited rejection to send instead of serving the request: the
// tenant and its rate, and a retry hint of the refill wait rounded up to
// whole seconds (at least one).
func (g *admission) limit(tenant string) failure {
	if g.limiter == nil {
		return failure{}
	}
	ok, wait := g.limiter.allow(tenant)
	if ok {
		return failure{}
	}
	secs := uint64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if tenant == "" {
		tenant = "default"
	}
	return failure{CodeRateLimited, fmt.Sprintf("tenant %q exceeded %g requests/sec", tenant, g.limiter.rate), secs}
}

// enter takes one of edge's in-flight slots. A failure with a code means
// the request is shed with the typed, retryable unavailable error instead
// of queueing toward collapse; it holds no slot then. Every entered
// request must leave.
func (g *admission) enter(edge int) failure {
	if g.maxInFlight <= 0 {
		return failure{}
	}
	if g.inFlight[edge].Add(1) > g.maxInFlight {
		g.inFlight[edge].Add(-1)
		g.shed[edge].Add(1)
		return failure{CodeUnavailable, "server overloaded: in-flight cap reached, retry shortly", DefaultRetryAfterSeconds}
	}
	return failure{}
}

// leave gives back the slot enter took.
func (g *admission) leave(edge int) {
	if g.maxInFlight > 0 {
		g.inFlight[edge].Add(-1)
	}
}

// tokenBucket is one tenant's refillable budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter applies per-tenant token-bucket admission control. Each
// tenant (absent means the default tenant) owns an independent bucket
// refilled continuously at rate requests/second up to burst.
type rateLimiter struct {
	rate       float64
	burst      float64
	maxTenants int

	mu         sync.Mutex
	buckets    map[string]*tokenBucket
	overflow   tokenBucket
	rejectedBy map[string]uint64
	evicted    uint64
	lastSweep  time.Time

	// now is the clock, swappable in tests.
	now func() time.Time
}

// newRateLimiter validates cfg and returns a ready limiter.
func newRateLimiter(cfg RateLimitConfig) (*rateLimiter, error) {
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
	return &rateLimiter{
		rate:       cfg.Rate,
		burst:      burst,
		maxTenants: DefaultMaxTenants,
		buckets:    make(map[string]*tokenBucket),
		rejectedBy: make(map[string]uint64),
		now:        time.Now,
	}, nil
}

// idlePeriod is how long a bucket must sit untouched before eviction: one
// refill-to-full period. An idle-for-that-long bucket has refilled to Burst
// and is indistinguishable from a fresh one, so evicting it changes no
// admission decision — it only returns the tenant slot.
func (rl *rateLimiter) idlePeriod() time.Duration {
	return time.Duration(rl.burst / rl.rate * float64(time.Second))
}

// evictIdle removes buckets idle for at least one refill-to-full period;
// callers hold rl.mu. Without this, maxTenants distinct tenant names ever
// seen would permanently exhaust the slots and force every NEW tenant into
// the shared overflow bucket.
func (rl *rateLimiter) evictIdle(now time.Time) {
	idle := rl.idlePeriod()
	for tenant, b := range rl.buckets {
		if now.Sub(b.last) >= idle {
			delete(rl.buckets, tenant)
			rl.evicted++
		}
	}
	rl.lastSweep = now
}

// allow consumes one token from the tenant's bucket, reporting whether the
// request may proceed and, when it may not, how long until a token refills.
func (rl *rateLimiter) allow(tenant string) (bool, time.Duration) {
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
	// Per-tenant rejection attribution. The key space is bounded by the
	// SERIES cap, not the bucket cap: every key here becomes a label set
	// on the rate-limit metric, so once DefaultMaxTenantSeries distinct
	// tenants hold rejection counts, further new tenants aggregate under
	// OtherTenant rather than letting a hostile client mint unbounded time
	// series. Rejection counts are never evicted — they are cumulative
	// history, and resetting one on idle-eviction would make the /metrics
	// counter go backwards.
	key := tenant
	if key == "" {
		key = "default"
	}
	if _, ok := rl.rejectedBy[key]; !ok && len(rl.rejectedBy) >= DefaultMaxTenantSeries {
		key = OtherTenant
	}
	rl.rejectedBy[key]++
	wait := time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
	return false, wait
}

// rejectedByTenant returns a copy of the per-tenant rejection counts. The
// empty tenant is reported as "default"; tenants past the
// DefaultMaxTenantSeries cardinality cap are folded into OtherTenant
// ("_other"). Tenants that were never rejected do not appear. Nil-safe:
// with rate limiting off it returns nil.
func (rl *rateLimiter) rejectedByTenant() map[string]uint64 {
	if rl == nil {
		return nil
	}
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
