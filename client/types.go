package client

import (
	"time"

	"github.com/dpgo/svt/wire"
)

// The request/response types mirror the server's JSON API field for
// field (same names, same tags) without importing the server package, so
// the SDK links without pulling in the service. The cold wire ops carry
// exactly these JSON bodies; the hot query path carries their binary
// equivalents from the wire package.

// CreateParams configures a new session (POST /v1/sessions body /
// OpCreate body). The tenant is not a field: it is fixed per connection
// by Options.Tenant at Dial, exactly as the HTTP API takes it from the
// X-Tenant header and never the body.
type CreateParams struct {
	// Mechanism selects the algorithm by registry name; Mechanisms()
	// lists what the server offers.
	Mechanism string `json:"mechanism"`
	// Epsilon is the session's total privacy budget. Required.
	Epsilon float64 `json:"epsilon"`
	// Sensitivity is the query sensitivity Δ; 0 defaults to 1.
	Sensitivity float64 `json:"sensitivity,omitempty"`
	// MaxPositives is the SVT cutoff c. Required.
	MaxPositives int `json:"maxPositives"`
	// Threshold is the default threshold for queries without their own.
	Threshold *float64 `json:"threshold,omitempty"`
	// Monotonic enables the Theorem-5 refinement where the mechanism's
	// capabilities advertise monotonicRefinement.
	Monotonic bool `json:"monotonic,omitempty"`
	// AnswerFraction reserves ε₃ for numeric releases where supported.
	AnswerFraction float64 `json:"answerFraction,omitempty"`
	// Seed makes the session reproducible; only mechanisms flagged
	// seedable accept it.
	Seed uint64 `json:"seed,omitempty"`
	// Deprecated: the server refuses a nonzero CacheSize, and Create
	// returns its refusal as an *APIError with code bad_request. The cache
	// it selected keyed on the query value, so a cached session had no
	// finite ε.
	CacheSize int `json:"cacheSize,omitempty"`
	// TTLSeconds is the idle time-to-live; 0 uses the server default.
	TTLSeconds float64 `json:"ttlSeconds,omitempty"`
	// Histogram is the private dataset for mechanisms flagged
	// needsHistogram.
	Histogram []float64 `json:"histogram,omitempty"`
	// UpdateFraction and LearningRate tune histogram mediators.
	UpdateFraction float64 `json:"updateFraction,omitempty"`
	LearningRate   float64 `json:"learningRate,omitempty"`
}

// Budget is the realized (ε₁, ε₂, ε₃) split.
type Budget struct {
	Eps1  float64 `json:"eps1"`
	Eps2  float64 `json:"eps2"`
	Eps3  float64 `json:"eps3"`
	Total float64 `json:"total"`
}

// SessionStatus is a session's public state.
type SessionStatus struct {
	ID        string    `json:"id"`
	Mechanism string    `json:"mechanism"`
	Answered  int       `json:"answered"`
	Positives int       `json:"positives"`
	Remaining int       `json:"remaining"`
	Halted    bool      `json:"halted"`
	Budget    Budget    `json:"budget"`
	CreatedAt time.Time `json:"createdAt"`
	ExpiresAt time.Time `json:"expiresAt"`
}

// CreateResponse is what Create returns.
type CreateResponse struct {
	SessionStatus
	// TTLSeconds is the resolved idle time-to-live.
	TTLSeconds float64 `json:"ttlSeconds"`
}

// QueryItem is one query in a batch.
type QueryItem struct {
	// Query is the true, unperturbed answer.
	Query float64 `json:"query"`
	// Threshold overrides the session default when non-nil.
	Threshold *float64 `json:"threshold,omitempty"`
	// Buckets poses a linear counting query over the session histogram.
	Buckets []int `json:"buckets,omitempty"`
}

// QueryResult is one released answer, decoded straight off the wire.
type QueryResult = wire.Result

// BatchResult is the outcome of one query batch.
type BatchResult struct {
	Results   []QueryResult `json:"results"`
	Halted    bool          `json:"halted"`
	Remaining int           `json:"remaining"`
	// RequestID is the correlation ID the server carried on the response
	// — the caller's own, or a server-minted one — usable against GET
	// /v1/traces/{id} and the server's slow-query logs, exactly like the
	// HTTP X-Request-Id header.
	RequestID string `json:"-"`
}

// MechanismInfo describes one registered mechanism and its capability
// flags; the SDK validates CreateParams against them before spending a
// round trip.
type MechanismInfo struct {
	Name                string `json:"name"`
	Summary             string `json:"summary,omitempty"`
	NumericReleases     bool   `json:"numericReleases"`
	MonotonicRefinement bool   `json:"monotonicRefinement"`
	Seedable            bool   `json:"seedable"`
	NeedsHistogram      bool   `json:"needsHistogram"`
}

// MechanismsResponse is the OpMechanisms / GET /v1/mechanisms body.
type MechanismsResponse struct {
	Mechanisms []MechanismInfo `json:"mechanisms"`
}
