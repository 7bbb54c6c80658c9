// Package pmw implements Private Multiplicative Weights, the interactive
// "iterative construction" use of SVT that motivates the paper's §1: a
// mediator maintains a public synthetic histogram, answers each incoming
// linear query from it for free, and only spends privacy budget — gated by
// SVT — when the synthetic answer's error exceeds a threshold.
//
// This is the Hardt-Rothblum / Gupta-Roth-Ullman construction with the
// paper's corrected SVT (Algorithm 7 via the svt package) as the gate, and
// with the §3.4 fix applied: the gated query is rᵢ = |q̃ᵢ − qᵢ(D)| with the
// noise OUTSIDE the absolute value, not the broken |q̃ᵢ − qᵢ(D) + νᵢ| form
// used in the original papers.
package pmw

import (
	"errors"
	"fmt"
	"math"

	svt "github.com/dpgo/svt"
	"github.com/dpgo/svt/internal/rng"
)

// ErrExhausted is returned by Answer once the engine has spent all its
// update budget; the accompanying Result still carries the synthetic
// estimate, which is free to release but no longer accuracy-checked.
var ErrExhausted = errors.New("pmw: update budget exhausted; answer is an unchecked synthetic estimate")

// Config configures an Engine.
type Config struct {
	// Histogram is the private dataset as counts per domain bucket. It is
	// copied; the engine never mutates or exposes it.
	Histogram []float64
	// Epsilon is the total privacy budget of the whole interaction.
	Epsilon float64
	// MaxUpdates is the SVT cutoff c: how many queries may be answered
	// from the real data before the engine degrades to synthetic-only.
	MaxUpdates int
	// Threshold is the error level T that triggers a real-data access:
	// queries whose synthetic estimate is (noisily) within Threshold of
	// the truth are answered for free. Must be positive.
	Threshold float64
	// UpdateFraction is the share of Epsilon reserved for the Laplace
	// releases that drive the multiplicative-weights updates; the
	// remainder powers the SVT gate. Zero means the default of 0.5.
	UpdateFraction float64
	// LearningRate is the multiplicative-weights step size η; zero means
	// the default of 0.05.
	LearningRate float64
	// Seed 0 means crypto-seeded.
	Seed uint64
}

// Result is one answered query.
type Result struct {
	// Value is the released answer (a count).
	Value float64
	// FromSynthetic reports that the answer came from the public synthetic
	// histogram (no budget spent); otherwise it is a fresh Laplace release
	// that also updated the synthetic histogram.
	FromSynthetic bool
}

// Engine is a private interactive query-answering mediator. It is not safe
// for concurrent use.
type Engine struct {
	truth          []float64 // private histogram (counts)
	synth          []float64 // public synthetic histogram (counts, same total mass)
	total          float64
	gate           *svt.Sparse
	src            *rng.Source
	eta            float64
	thresholdValue float64 // gate threshold T

	updateScale float64 // Laplace scale per update release
	epsUpdates  float64 // total budget of the Laplace update releases
	updatesLeft int
	answered    int
	updates     int

	// seen is CheckBuckets' scratch: one bit per histogram bucket, all
	// zero between calls. It is not state, so it is never journaled.
	seen []uint64
}

// New validates cfg and builds an engine. The synthetic histogram starts
// uniform with the same total mass as the data — the standard MW prior.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Histogram) < 2 {
		return nil, fmt.Errorf("pmw: histogram needs at least 2 buckets, got %d", len(cfg.Histogram))
	}
	total := 0.0
	for i, v := range cfg.Histogram {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("pmw: histogram[%d] = %v must be a finite non-negative count", i, v)
		}
		total += v
	}
	if !(total > 0) {
		return nil, fmt.Errorf("pmw: histogram is empty (zero total mass)")
	}
	if !(cfg.Epsilon > 0) || math.IsInf(cfg.Epsilon, 0) {
		return nil, fmt.Errorf("pmw: Epsilon must be positive and finite, got %v", cfg.Epsilon)
	}
	if cfg.MaxUpdates <= 0 {
		return nil, fmt.Errorf("pmw: MaxUpdates must be positive, got %d", cfg.MaxUpdates)
	}
	if !(cfg.Threshold > 0) || math.IsInf(cfg.Threshold, 0) {
		return nil, fmt.Errorf("pmw: Threshold must be positive and finite, got %v", cfg.Threshold)
	}
	uf := cfg.UpdateFraction
	if uf == 0 {
		uf = 0.5
	}
	if !(uf > 0 && uf < 1) || math.IsNaN(uf) {
		return nil, fmt.Errorf("pmw: UpdateFraction must be in (0, 1), got %v", cfg.UpdateFraction)
	}
	eta := cfg.LearningRate
	if eta == 0 {
		eta = 0.05
	}
	if !(eta > 0) || math.IsInf(eta, 0) {
		return nil, fmt.Errorf("pmw: LearningRate must be positive and finite, got %v", cfg.LearningRate)
	}
	epsUpdates := cfg.Epsilon * uf
	epsGate := cfg.Epsilon - epsUpdates
	gate, err := svt.New(svt.Options{
		Epsilon:      epsGate,
		Sensitivity:  1, // |q̃ − q(D)| changes by at most 1 per added/removed record
		MaxPositives: cfg.MaxUpdates,
		Seed:         deriveSeed(cfg.Seed, 1),
	})
	if err != nil {
		return nil, fmt.Errorf("pmw: building gate: %w", err)
	}
	truth := make([]float64, len(cfg.Histogram))
	copy(truth, cfg.Histogram)
	synth := make([]float64, len(truth))
	uniform := total / float64(len(synth))
	for i := range synth {
		synth[i] = uniform
	}
	return &Engine{
		truth:          truth,
		synth:          synth,
		total:          total,
		gate:           gate,
		src:            rng.NewSeeded(deriveSeed(cfg.Seed, 2)),
		eta:            eta,
		thresholdValue: cfg.Threshold,
		updateScale:    1 / (epsUpdates / float64(cfg.MaxUpdates)), // Δ=1 per release
		epsUpdates:     epsUpdates,
		updatesLeft:    cfg.MaxUpdates,
		seen:           make([]uint64, (len(truth)+63)/64),
	}, nil
}

// deriveSeed gives the gate and the update noise independent deterministic
// streams; seed 0 stays 0 so both fall back to crypto seeding.
func deriveSeed(seed uint64, salt uint64) uint64 {
	if seed == 0 {
		return 0
	}
	return rng.New(seed+salt).Uint64() | 1
}

// Answer answers the linear counting query that sums the buckets listed in
// query (distinct indices into the histogram). It returns the synthetic
// estimate for free when the SVT gate reports the estimate accurate, and
// otherwise spends one update's budget to release a Laplace-noised true
// answer and improve the synthetic histogram.
//
// After MaxUpdates data accesses the engine answers from the synthetic
// histogram only and returns ErrExhausted alongside the estimate.
func (e *Engine) Answer(query []int) (Result, error) {
	est, truth, err := e.evaluate(query)
	if err != nil {
		return Result{}, err
	}
	e.answered++
	if e.gate.Halted() {
		return Result{Value: est, FromSynthetic: true}, ErrExhausted
	}
	// §3.4-corrected gate query: noise is added by the gate OUTSIDE |·|.
	res, err := e.gate.Next(math.Abs(est-truth), e.thresholdForGate())
	if errors.Is(err, svt.ErrHalted) {
		return Result{Value: est, FromSynthetic: true}, ErrExhausted
	}
	if err != nil {
		return Result{}, fmt.Errorf("pmw: gate: %w", err)
	}
	if !res.Above {
		return Result{Value: est, FromSynthetic: true}, nil
	}
	// Hard query: release a noisy true answer and update the weights.
	noisy := truth + e.src.Laplace(e.updateScale)
	e.updates++
	e.updatesLeft--
	e.reweight(query, noisy > est)
	return Result{Value: noisy, FromSynthetic: false}, nil
}

// thresholdForGate returns the gate threshold T.
func (e *Engine) thresholdForGate() float64 { return e.thresholdValue }

// reweight applies one multiplicative-weights step: buckets inside the
// query move up (estimate too low) or down (too high) by factor e^{±η},
// then the histogram is renormalized to the original total mass.
func (e *Engine) reweight(query []int, up bool) {
	factor := math.Exp(e.eta)
	if !up {
		factor = 1 / factor
	}
	for _, i := range query {
		e.synth[i] *= factor
	}
	mass := 0.0
	for _, v := range e.synth {
		mass += v
	}
	scale := e.total / mass
	for i := range e.synth {
		e.synth[i] *= scale
	}
}

// evaluate computes the synthetic estimate and the private true answer of
// the query, validating it first.
func (e *Engine) evaluate(query []int) (est, truth float64, err error) {
	if len(query) == 0 {
		return 0, 0, errors.New("pmw: empty query")
	}
	if err := e.CheckBuckets(query); err != nil {
		return 0, 0, err
	}
	for _, i := range query {
		est += e.synth[i]
		truth += e.truth[i]
	}
	return est, truth, nil
}

// BucketError reports a query bucket that is out of range or repeats an
// earlier bucket of the same query.
type BucketError struct {
	// Bucket is the offending index; Buckets is the histogram's size.
	Bucket, Buckets int
	// Duplicate is set when Bucket repeats; otherwise it is out of range.
	Duplicate bool
}

func (b *BucketError) Error() string {
	if b.Duplicate {
		return fmt.Sprintf("pmw: duplicate bucket %d in query", b.Bucket)
	}
	return fmt.Sprintf("pmw: bucket %d out of range [0,%d)", b.Bucket, b.Buckets)
}

// CheckBuckets returns a *BucketError for the first bucket of query that
// is out of range or repeated (a duplicated bucket would double-count and
// break the sensitivity-1 argument), and nil when every bucket is a
// distinct histogram index. Answer runs it on every query. It takes
// O(len(query)) time and allocates nothing on success: it marks buckets
// in the engine's bitset and clears them again before returning.
func (e *Engine) CheckBuckets(query []int) error {
	var bad *BucketError
	n := 0
	for ; n < len(query); n++ {
		i := query[n]
		if i < 0 || i >= len(e.truth) {
			bad = &BucketError{Bucket: i, Buckets: len(e.truth)}
			break
		}
		word, bit := i>>6, uint64(1)<<(i&63)
		if e.seen[word]&bit != 0 {
			bad = &BucketError{Bucket: i, Buckets: len(e.truth), Duplicate: true}
			break
		}
		e.seen[word] |= bit
	}
	// Every set bit belongs to query[:n], so zeroing their words restores
	// the all-zero bitset.
	for _, i := range query[:n] {
		e.seen[i>>6] = 0
	}
	if bad != nil {
		return bad
	}
	return nil
}

// Synthetic returns a copy of the current public synthetic histogram.
func (e *Engine) Synthetic() []float64 {
	out := make([]float64, len(e.synth))
	copy(out, e.synth)
	return out
}

// Answered returns the number of queries answered so far.
func (e *Engine) Answered() int { return e.answered }

// Updates returns how many real-data accesses have happened.
func (e *Engine) Updates() int { return e.updates }

// UpdatesLeft returns how many real-data accesses remain.
func (e *Engine) UpdatesLeft() int { return e.updatesLeft }

// Exhausted reports whether the engine can no longer access the real data.
func (e *Engine) Exhausted() bool { return e.gate.Halted() }

// Restore fast-forwards a freshly constructed engine's budget accounting to
// a state journaled before a crash: answered queries answered so far and
// updates real-data accesses already consumed. The SVT gate is restored
// alongside, so the interaction cannot access the real data more than
// MaxUpdates times in total across the restart. Two things are deliberately
// NOT restored here: the learned synthetic histogram (RestoreSynthetic;
// left at the uniform prior it costs accuracy, never privacy) and the noise
// streams (FastForward). Fresh noise is not free: an engine rebuilt without
// its Seed draws a fresh gate threshold ρ, and Theorem 4's proof uses one ρ
// per run, so after k such restarts the gate's ε₁ is spent k+1 times.
func (e *Engine) Restore(answered, updates int) error {
	if e.answered != 0 || e.updates != 0 {
		return errors.New("pmw: Restore requires a freshly constructed engine")
	}
	if updates < 0 || updates > e.updatesLeft {
		return fmt.Errorf("pmw: restored updates %d out of [0, %d]", updates, e.updatesLeft)
	}
	if answered < updates {
		return fmt.Errorf("pmw: restored answered %d below updates %d", answered, updates)
	}
	// The gate answered at least updates queries pre-crash; only its
	// positive count affects future behavior.
	if err := e.gate.Restore(updates, updates); err != nil {
		return fmt.Errorf("pmw: restoring gate: %w", err)
	}
	e.answered = answered
	e.updates = updates
	e.updatesLeft -= updates
	return nil
}

// Draws returns the positions of the engine's two noise streams: the SVT
// gate's source and the Laplace update-release source. Crash recovery
// journals both so a seeded engine can be resumed with FastForward.
func (e *Engine) Draws() (gate, update uint64) {
	return e.gate.Draws(), e.src.Draws()
}

// FastForward advances both noise streams to the absolute positions
// previously reported by Draws, discarding the skipped values. For a seeded
// engine rebuilt from its original seed — with the synthetic histogram
// restored via RestoreSynthetic — the continuation is bit-identical to an
// uninterrupted run, and no pre-crash draw is ever re-emitted. It returns an
// error if either stream is already past its target.
func (e *Engine) FastForward(gate, update uint64) error {
	if err := e.gate.FastForward(gate); err != nil {
		return fmt.Errorf("pmw: gate: %w", err)
	}
	cur := e.src.Draws()
	if update < cur {
		return fmt.Errorf("pmw: cannot fast-forward update stream to draw %d, already at %d", update, cur)
	}
	e.src.Skip(update - cur)
	return nil
}

// RestoreSynthetic replaces the public synthetic histogram with a journaled
// snapshot of it, so a recovered engine resumes from its learned
// distribution instead of restarting at the uniform prior. The values are
// copied verbatim — no renormalization — so a seeded, fast-forwarded engine
// continues bit-identically to the uninterrupted run; the journaled mass
// must agree with the engine's total up to floating-point renormalization
// slack. The synthetic histogram is derived entirely from already-released
// answers, so restoring it spends no privacy budget.
func (e *Engine) RestoreSynthetic(synth []float64) error {
	if len(synth) != len(e.synth) {
		return fmt.Errorf("pmw: restored synthetic histogram has %d buckets, want %d", len(synth), len(e.synth))
	}
	mass := 0.0
	for i, v := range synth {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("pmw: restored synthetic[%d] = %v must be a finite non-negative count", i, v)
		}
		mass += v
	}
	if !(mass > 0) || math.Abs(mass-e.total) > 1e-6*e.total {
		return fmt.Errorf("pmw: restored synthetic mass %v does not match the engine total %v", mass, e.total)
	}
	copy(e.synth, synth)
	return nil
}

// Budgets returns the realized privacy-budget split of the whole
// interaction: the SVT gate's threshold and query budgets (ε₁, ε₂) and the
// total budget of the Laplace update releases as ε₃. The three sum to the
// configured Epsilon under basic composition.
func (e *Engine) Budgets() (gateEps1, gateEps2, epsUpdates float64) {
	gateEps1, gateEps2, _ = e.gate.Budgets() // the gate reserves no ε₃ of its own
	return gateEps1, gateEps2, e.epsUpdates
}
