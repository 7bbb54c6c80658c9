// Package mech is the pluggable mechanism layer between the repo's
// mechanism implementations (the SVT family's machines in internal/core,
// pmw.Engine, and new additions) and the multi-tenant session server.
//
// The paper's whole point is that SVT is a *family* of mechanisms
// distinguished by small structural choices, and the family keeps growing
// (Chen & Machanavajjhala's taxonomy, Liu et al.'s exponential-noise SVT).
// This package turns that observation into an architecture: every servable
// mechanism is an Instance built by a Factory looked up in a Registry, and
// the server holds exactly one Instance per session — no per-kind dispatch
// anywhere above this seam. The SVT members (sparse, esvt, proposed,
// dpbook) share one adapter in svt.go, over the run state their core
// machines share, so adding one is a registration: a summary, capability
// flags and a constructor. A mechanism with a different shape (pmw, with
// two noise streams and a histogram) is one file with its own Instance.
// Either way the server, its journal codec, its discovery endpoint and its
// per-mechanism counters pick it up without modification.
package mech

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Params is the mechanism-facing subset of a session-create request. Every
// Factory validates the fields it consumes and rejects the ones it does not
// (a silently ignored knob is a privacy footgun: an analyst who believes
// they got the monotonic refinement must not silently run without it).
type Params struct {
	// Epsilon is the total privacy budget of the interaction. Required.
	Epsilon float64
	// Sensitivity is the query sensitivity Δ; 0 defaults to 1.
	Sensitivity float64
	// MaxPositives is the positive-outcome cutoff c (for histogram
	// mediators: the update budget). Required.
	MaxPositives int
	// Threshold is the session's default threshold; nil when the analyst
	// will supply one per query. Histogram mediators require it (the error
	// level T that triggers a real-data access).
	Threshold *float64
	// Monotonic claims the Theorem-5 monotonic-query refinement.
	Monotonic bool
	// AnswerFraction reserves ε₃ for numeric releases.
	AnswerFraction float64
	// Seed makes the mechanism reproducible; 0 means crypto-seeded.
	Seed uint64
	// Histogram is the private dataset for histogram mediators.
	Histogram []float64
	// UpdateFraction and LearningRate tune histogram mediators; zero means
	// their defaults.
	UpdateFraction float64
	LearningRate   float64
}

// isSet reports whether an optional float parameter was supplied. This is
// the one sanctioned exact float comparison in the package: 0 is the
// JSON-absent sentinel, assigned, never the result of budget arithmetic.
func isSet(x float64) bool {
	return x != 0 //nolint:svtlint/floateq // 0 is the unset-param sentinel, never computed
}

// delta returns the sensitivity with the package-wide default applied.
func (p Params) delta() float64 {
	if !isSet(p.Sensitivity) {
		return 1
	}
	return p.Sensitivity
}

// Query is one already-resolved query item: the session layer applies its
// default threshold before handing the item to the mechanism.
type Query struct {
	// Value is the true, unperturbed answer q(D) computed by the trusted
	// side on the private data (threshold mechanisms).
	Value float64
	// Threshold is the resolved threshold; NaN when neither the session
	// default nor the query carried one.
	Threshold float64
	// Buckets is a linear counting query: distinct histogram indices
	// (histogram mediators).
	Buckets []int
}

// Result is one released answer.
type Result struct {
	// Above reports a positive outcome (⊤).
	Above bool
	// Numeric reports that Value carries a released number.
	Numeric bool
	// Value is the released number when Numeric is set.
	Value float64
	// FromSynthetic marks a free synthetic-histogram answer (no budget
	// spent).
	FromSynthetic bool
	// Exhausted marks an answer released after the update budget was
	// spent: an unchecked synthetic estimate.
	Exhausted bool
	// SpentPositive reports that this answer consumed one unit of the
	// mechanism's positive-outcome (or update) budget. The server journals
	// the running count as "positives"; mechanisms own this accounting so
	// no caller has to know which result shape spends budget for which
	// mechanism kind.
	SpentPositive bool
}

// Instance is one live mechanism. Instances are not safe for concurrent
// use; the session layer serializes access.
type Instance interface {
	// Validate rejects a malformed query without touching mechanism state
	// or noise, so a bad batch can be refused before any budget is spent.
	Validate(q Query) error
	// Answer answers one already-validated query. refused reports that the
	// mechanism's positive-outcome budget is spent and nothing was
	// released; mechanisms that keep answering after exhaustion (pmw)
	// instead return results flagged Exhausted.
	Answer(q Query) (res Result, refused bool, err error)
	// Halted reports that the positive-outcome (or update) budget is spent.
	Halted() bool
	// Remaining returns how many more positive outcomes / updates may be
	// released.
	Remaining() int
	// Answered returns how many queries the instance has answered,
	// restored ones included.
	Answered() int
	// Budgets returns the realized (ε₁, ε₂, ε₃) split; parts sum to the
	// configured Epsilon.
	Budgets() (eps1, eps2, eps3 float64)
	// Draws returns the noise streams' absolute positions: the primary
	// stream and an auxiliary stream (0 for single-stream mechanisms).
	// Crash recovery journals them so seeded instances resume exactly.
	Draws() (main, aux uint64)
	// FastForward advances freshly re-seeded noise streams to the
	// journaled absolute positions, discarding the skipped values, so a
	// recovered instance continues the pre-crash stream bit-identically
	// without ever re-emitting a draw the analyst may have observed.
	FastForward(main, aux uint64) error
	// Restore fast-forwards a freshly built instance's accounting to
	// journaled counters: answered queries and consumed positives. It must
	// advance BOTH counts on the mechanism side for every mechanism, and
	// re-arm the halt state when positives reaches the cutoff — spent
	// budget is never refreshed by a restart.
	Restore(answered, positives int) error
	// MarshalState returns the mechanism's evolving opaque state: whatever
	// future answers depend on that is NOT re-derivable from Params + seed
	// + stream position (dpbook's resampled ρ, pmw's learned synthetic
	// histogram). nil means nothing needs journaling. The blob format is
	// private to the mechanism; the journal stores it verbatim.
	MarshalState() []byte
	// UnmarshalState restores a blob previously returned by MarshalState
	// on an identically-parameterized fresh instance.
	UnmarshalState(data []byte) error
}

// ---- Opaque state blob formats ----
//
// Each mechanism owns its blob layout; these two are exported because the
// server's journal codec must map LEGACY (pre-v3) records — which carried a
// special-cased ρ or synthetic histogram instead of an opaque blob — onto
// the blobs the corresponding mechanisms expect today. New code never
// touches them outside MarshalState/UnmarshalState.

// RhoStateBlob encodes an evolving noisy-threshold offset ρ: 8 bytes,
// float64 little-endian bits. It is the MarshalState format of mechanisms
// whose ρ is resampled mid-stream (dpbook).
func RhoStateBlob(rho float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(rho))
}

// rhoFromState decodes RhoStateBlob.
func rhoFromState(data []byte) (float64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("mech: rho state blob has %d bytes, want 8", len(data))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
}

// SyntheticStateBlob encodes a learned synthetic histogram: 8 bytes per
// bucket, float64 little-endian bits, length implied. It is the
// MarshalState format of histogram mediators (pmw).
func SyntheticStateBlob(hist []float64) []byte {
	out := make([]byte, 0, 8*len(hist))
	for _, v := range hist {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// syntheticFromState decodes SyntheticStateBlob, checking the bucket count.
func syntheticFromState(data []byte, buckets int) ([]float64, error) {
	if len(data) != 8*buckets {
		return nil, fmt.Errorf("mech: synthetic state blob has %d bytes, want %d (%d buckets)", len(data), 8*buckets, buckets)
	}
	hist := make([]float64, buckets)
	for i := range hist {
		hist[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return hist, nil
}
