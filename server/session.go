package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/wire"
)

// Mechanism names one of the interactive mechanisms a session can run. The
// set of servable mechanisms is whatever the manager's mech.Registry holds
// (GET /v1/mechanisms lists them with capability flags); the constants
// below name the built-ins for compile-time convenience. Only
// differentially private mechanisms are registered: the broken historical
// algorithms (Roth11, Stoddard, Chen, GPTT) stay confined to the
// variants/audit packages and are deliberately not servable.
type Mechanism string

const (
	// MechSparse is the paper's corrected, generalized SVT (Algorithm 7):
	// optimal budget allocation, optional monotonic refinement and
	// optional ε₃ numeric releases.
	MechSparse Mechanism = "sparse"
	// MechProposed is the paper's Algorithm 1 (fixed ρ, ε₁=ε₂=ε/2).
	MechProposed Mechanism = "proposed"
	// MechDPBook is Algorithm 2, the Dwork-Roth book SVT (resampled ρ).
	MechDPBook Mechanism = "dpbook"
	// MechPMW is the Private-Multiplicative-Weights mediator with the
	// corrected SVT as its gate (the pmw package).
	MechPMW Mechanism = "pmw"
)

// CreateParams configures a new session. JSON field names match the
// POST /v1/sessions request body.
type CreateParams struct {
	// Mechanism selects the algorithm by its registry name (GET
	// /v1/mechanisms lists what this server offers). Required.
	Mechanism Mechanism `json:"mechanism"`
	// Epsilon is the total privacy budget of the session. Required.
	Epsilon float64 `json:"epsilon"`
	// Sensitivity is the query sensitivity Δ; 0 defaults to 1.
	Sensitivity float64 `json:"sensitivity,omitempty"`
	// MaxPositives is the SVT cutoff c (for mediators: the update budget).
	// Required.
	MaxPositives int `json:"maxPositives"`
	// Threshold is the default threshold for queries that do not carry
	// their own. Required for mechanisms flagged needsHistogram (the error
	// threshold T); optional for the SVT mechanisms when every query
	// supplies a threshold. A pointer so that an explicit default of 0 is
	// distinguishable from "absent".
	Threshold *float64 `json:"threshold,omitempty"`
	// Monotonic enables the Theorem 5 refinement where the mechanism's
	// capabilities advertise it.
	Monotonic bool `json:"monotonic,omitempty"`
	// AnswerFraction reserves ε₃ for numeric releases where supported.
	AnswerFraction float64 `json:"answerFraction,omitempty"`
	// Seed makes the session reproducible; 0 means crypto-seeded.
	Seed uint64 `json:"seed,omitempty"`
	// Deprecated: the manager refuses a nonzero CacheSize as bad_request.
	// The response cache it selected keyed on the query value, computed
	// from the private data, so a cached session had no finite ε.
	CacheSize int `json:"cacheSize,omitempty"`
	// TTLSeconds is the idle time-to-live; 0 uses the manager default.
	TTLSeconds float64 `json:"ttlSeconds,omitempty"`
	// Histogram is the private dataset for mechanisms that need one.
	Histogram []float64 `json:"histogram,omitempty"`
	// UpdateFraction and LearningRate tune histogram mediators; zero means
	// their defaults.
	UpdateFraction float64 `json:"updateFraction,omitempty"`
	LearningRate   float64 `json:"learningRate,omitempty"`
	// Tenant attributes the session for per-tenant budget telemetry. It is
	// deliberately NOT settable through the request body (json:"-"): the
	// HTTP layer fills it from the authenticated X-Tenant header, the same
	// identity the rate limiter keys on. Persisted in the journal (codec
	// v4's tenant flag) so attribution survives a crash; empty means the
	// default tenant.
	Tenant string `json:"-"`
}

// mechParams maps the wire-level create request onto the mechanism layer's
// parameter set; each factory validates the fields it consumes.
func (p CreateParams) mechParams() mech.Params {
	return mech.Params{
		Epsilon:        p.Epsilon,
		Sensitivity:    p.Sensitivity,
		MaxPositives:   p.MaxPositives,
		Threshold:      p.Threshold,
		Monotonic:      p.Monotonic,
		AnswerFraction: p.AnswerFraction,
		Seed:           p.Seed,
		Histogram:      p.Histogram,
		UpdateFraction: p.UpdateFraction,
		LearningRate:   p.LearningRate,
	}
}

// QueryItem is one threshold query (SVT mechanisms) or one linear
// counting query (histogram mediators).
type QueryItem struct {
	// Query is the true, unperturbed answer computed by the analyst's
	// trusted side on the private data (SVT mechanisms).
	Query float64 `json:"query"`
	// Threshold overrides the session default for this query. NaN/absent
	// means use the default.
	Threshold *float64 `json:"threshold,omitempty"`
	// Buckets is a linear counting query: distinct histogram indices.
	Buckets []int `json:"buckets,omitempty"`
}

// QueryResult is one released answer: the wire protocol's result type,
// whose JSON tags give the HTTP body its shape.
type QueryResult = wire.Result

// BatchResult is the outcome of a (possibly single-item) query batch.
type BatchResult struct {
	// Results holds one entry per answered query, in order. It is shorter
	// than the request when the mechanism halted mid-batch.
	Results []QueryResult `json:"results"`
	// Halted reports that the session's positive-outcome (or update)
	// budget is spent.
	Halted bool `json:"halted"`
	// Remaining is how many more positive outcomes / updates may be
	// released.
	Remaining int `json:"remaining"`
}

// Budget is the realized privacy-budget split of a session, as reported by
// the mechanism itself: the paper's (ε₁, ε₂, ε₃) for SVT-family
// mechanisms, the gate split plus the Laplace update-release budget for
// mediators. Total is always their basic-composition sum, which equals the
// configured session Epsilon.
type Budget struct {
	Eps1  float64 `json:"eps1"`
	Eps2  float64 `json:"eps2"`
	Eps3  float64 `json:"eps3"`
	Total float64 `json:"total"`
}

// SessionStatus is the GET /v1/sessions/{id} response body.
type SessionStatus struct {
	ID        string    `json:"id"`
	Mechanism Mechanism `json:"mechanism"`
	Answered  int       `json:"answered"`
	Positives int       `json:"positives"`
	Remaining int       `json:"remaining"`
	Halted    bool      `json:"halted"`
	Budget    Budget    `json:"budget"`
	CreatedAt time.Time `json:"createdAt"`
	ExpiresAt time.Time `json:"expiresAt"`
}

// Session is one live mechanism instance. All mechanism access is
// serialized by the session's own mutex, so many sessions progress in
// parallel while each individual interaction stays sequential — the
// underlying mechanism types are not concurrency-safe.
type Session struct {
	id   string
	mech Mechanism
	// mechIdx is the mechanism's position in the manager's registry-derived
	// counter array, resolved once at registration so the per-batch counter
	// bump is an array index, not a map lookup (-1 outside a manager).
	mechIdx int
	// home is the manager shard the session lives on, resolved once at
	// registration so the per-batch counter bump re-hashes nothing (nil
	// outside a manager).
	home *shard
	ttl  time.Duration

	createdAt time.Time
	// expiresAt is the idle deadline in unixnanos, advanced on every
	// access; atomic so the janitor can read it without the session lock.
	expiresAt atomic.Int64

	// params is the validated create request, retained verbatim so the
	// session can be journaled and rebuilt after a restart (see persist.go).
	params CreateParams

	mu        sync.Mutex
	inst      mech.Instance
	threshold float64 // default threshold; NaN when none was given
	answered  int
	positives int
	budget    Budget
	// haltSeen marks that the session's halt transition has been counted
	// (or, for a recovered already-halted session, that it pre-dates this
	// process), so the per-mechanism halt counter counts each session at
	// most once.
	haltSeen bool

	// jAnswered/jPositives/jDraws/jAux are the counters and noise-stream
	// positions at the last successfully journaled progress event, so each
	// event carries exact deltas (see persist.go).
	jAnswered  int
	jPositives int
	jDraws     uint64
	jAux       uint64
}

// newSession validates p against the registry and builds the mechanism.
// ttl is already resolved (default applied, cap enforced) by the manager.
func newSession(reg *mech.Registry, id string, p CreateParams, ttl time.Duration, now time.Time) (*Session, error) {
	// Retain the params as realized, not as requested: the TTL is already
	// resolved (default applied, cap enforced), and a raw request like
	// ttlSeconds=+Inf would not survive the JSON journal encoding.
	p.TTLSeconds = ttl.Seconds()
	s := &Session{
		id:        id,
		mech:      p.Mechanism,
		mechIdx:   -1,
		ttl:       ttl,
		createdAt: now,
		params:    p,
		threshold: math.NaN(),
	}
	if p.Threshold != nil {
		if math.IsNaN(*p.Threshold) || math.IsInf(*p.Threshold, 0) {
			return nil, fmt.Errorf("server: threshold must be finite, got %v", *p.Threshold)
		}
		s.threshold = *p.Threshold
	}
	inst, err := reg.New(string(p.Mechanism), p.mechParams())
	if err != nil {
		return nil, err
	}
	s.inst = inst
	s.budget.Eps1, s.budget.Eps2, s.budget.Eps3 = inst.Budgets()

	// Basic composition: the session's ε is the sum of its positive parts.
	for _, e := range [...]float64{s.budget.Eps1, s.budget.Eps2, s.budget.Eps3} {
		if e > 0 {
			s.budget.Total += e
		}
	}
	if !(s.budget.Total > 0) || math.IsInf(s.budget.Total, 0) {
		return nil, fmt.Errorf("server: composing session budget: total %v must be positive and finite", s.budget.Total)
	}
	s.jDraws, s.jAux = inst.Draws() // construction draws are in the create record
	s.touch(now)
	return s, nil
}

// resolve builds the mechanism-layer query: the session's default threshold
// is applied to items that carry none.
func (s *Session) resolve(item QueryItem) mech.Query {
	th := s.threshold
	if item.Threshold != nil {
		th = *item.Threshold
	}
	return mech.Query{Value: item.Query, Threshold: th, Buckets: item.Buckets}
}

// touch pushes the idle deadline to now+ttl.
func (s *Session) touch(now time.Time) {
	s.expiresAt.Store(now.Add(s.ttl).UnixNano())
}

// expired reports whether the idle deadline has passed.
func (s *Session) expired(now time.Time) bool {
	return now.UnixNano() > s.expiresAt.Load()
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Mechanism returns the session's mechanism name.
func (s *Session) Mechanism() Mechanism { return s.mech }

// queryTake answers a batch of queries (a single query is a batch of
// one), writing the results into dst's backing array (dst may be nil).
// The whole batch is validated before any item is answered: released DP
// answers spend budget irrevocably, so a malformed item must not cost
// the analyst the answers preceding it. The batch stops early — without
// error — when the mechanism halts; the returned BatchResult reports how
// far it got. A query on an already-halted SVT session returns an empty,
// Halted result; a mediator session keeps answering from the synthetic
// histogram with the Exhausted flag set. With take set it also captures
// the journal progress delta in the SAME critical section, so the
// journaling path locks the session mutex once per batch instead of
// twice.
func (s *Session) queryTake(items []QueryItem, dst []QueryResult, take bool) (BatchResult, progressDelta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, item := range items {
		if err := s.inst.Validate(s.resolve(item)); err != nil {
			return BatchResult{}, progressDelta{}, fmt.Errorf("server: query %d: %w", i, err)
		}
	}
	if dst == nil {
		dst = make([]QueryResult, 0, len(items))
	}
	out := BatchResult{Results: dst[:0]}
	pos0 := s.positives
	for i, item := range items {
		res, refused, err := s.inst.Answer(s.resolve(item))
		if err != nil {
			// Unreachable after validation; surface it rather than hide it.
			return out, progressDelta{}, fmt.Errorf("server: query %d: %w", i, err)
		}
		if refused {
			break
		}
		out.Results = append(out.Results, QueryResult{
			Above:         res.Above,
			Numeric:       res.Numeric,
			Value:         res.Value,
			FromSynthetic: res.FromSynthetic,
			Exhausted:     res.Exhausted,
		})
		s.answered++
		if res.SpentPositive {
			s.positives++
		}
	}
	out.Halted = s.inst.Halted()
	out.Remaining = s.inst.Remaining()
	// Charge the per-mechanism counters while the deltas are exact, under
	// the same lock that produced them. Shard and index were resolved at
	// registration, so this is array math, no map and no hash; sessions
	// outside a manager (home == nil) have nothing to charge.
	if s.home != nil && s.mechIdx >= 0 {
		if n := len(out.Results); n > 0 {
			s.home.queries[s.mechIdx].Add(uint64(n))
		}
		if dp := s.positives - pos0; dp > 0 {
			s.home.positives[s.mechIdx].Add(uint64(dp))
		}
		if out.Halted && !s.haltSeen {
			s.home.halts[s.mechIdx].Add(1)
		}
	}
	if out.Halted {
		s.haltSeen = true
	}
	var d progressDelta
	if take {
		d = s.takeProgressLocked()
	}
	return out, d, nil
}

// Status snapshots the session.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStatus{
		ID:        s.id,
		Mechanism: s.mech,
		Answered:  s.answered,
		Positives: s.positives,
		Remaining: s.inst.Remaining(),
		Halted:    s.inst.Halted(),
		Budget:    s.budget,
		CreatedAt: s.createdAt,
		ExpiresAt: time.Unix(0, s.expiresAt.Load()),
	}
}

// Budget returns the session's realized budget split.
func (s *Session) Budget() Budget {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// restore fast-forwards a freshly built session to journaled counters:
// crash recovery's final step. The mechanism's own accounting — both the
// answered and the positive count — is advanced too, so a session that had
// consumed its whole positive budget pre-crash stays halted after the
// restart.
func (s *Session) restore(answered, positives int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if positives < 0 || answered < positives {
		return fmt.Errorf("server: restored counters answered=%d positives=%d are inconsistent", answered, positives)
	}
	if err := s.inst.Restore(answered, positives); err != nil {
		return err
	}
	s.answered = answered
	s.positives = positives
	s.jAnswered, s.jPositives = answered, positives
	// A session recovered already halted pre-dates this process's halt
	// counter; marking it seen keeps the counter to transitions this
	// process observed.
	s.haltSeen = s.inst.Halted()
	return nil
}
