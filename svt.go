package svt

import (
	"errors"
	"fmt"
	"math"

	"github.com/dpgo/svt/internal/core"
	"github.com/dpgo/svt/internal/rng"
)

// ErrHalted is returned by Sparse.Next once the mechanism has released its
// MaxPositives-th positive outcome and aborted.
var ErrHalted = errors.New("svt: mechanism halted after releasing MaxPositives positive outcomes")

// Result is one released answer of the mechanism.
type Result struct {
	// Above reports a positive outcome (⊤): the noisy query answer reached
	// the noisy threshold.
	Above bool
	// Numeric reports that Value carries a released number (only when the
	// mechanism was configured with AnswerFraction > 0 and Above is true).
	Numeric bool
	// Value is the ε₃-budgeted Laplace release of the query answer when
	// Numeric is true, and 0 otherwise.
	Value float64
}

// String renders ⊤/⊥ or the numeric value, matching the paper's notation.
func (r Result) String() string {
	switch {
	case r.Numeric:
		return fmt.Sprintf("%g", r.Value)
	case r.Above:
		return "⊤"
	default:
		return "⊥"
	}
}

// Sparse is a streaming above-threshold mechanism: the paper's corrected
// standard SVT (Algorithm 7). The total interaction — any number of
// queries, up to MaxPositives positive outcomes — satisfies ε-DP for the
// configured ε (Theorems 4 and 5).
//
// A Sparse value is not safe for concurrent use.
type Sparse struct {
	alg              *core.Alg7
	eps1, eps2, eps3 float64
}

// New validates opts and returns a ready mechanism. The threshold noise is
// drawn at construction time.
func New(opts Options) (*Sparse, error) {
	eps1, eps2, eps3, err := opts.validate()
	if err != nil {
		return nil, err
	}
	src := rng.NewSeeded(opts.Seed)
	alg := core.NewAlg7(src, core.Alg7Config{
		Eps1: eps1, Eps2: eps2, Eps3: eps3,
		Delta: opts.Sensitivity, C: opts.MaxPositives,
		Monotonic: opts.Monotonic,
	})
	return &Sparse{alg: alg, eps1: eps1, eps2: eps2, eps3: eps3}, nil
}

// Next answers one threshold query: is query (true, unperturbed answer
// computed by the caller on the private data) above threshold? It returns
// ErrHalted once the positive-outcome budget is spent, and an error for
// non-finite inputs.
func (s *Sparse) Next(query, threshold float64) (Result, error) {
	if math.IsNaN(query) || math.IsInf(query, 0) {
		return Result{}, fmt.Errorf("svt: query answer must be finite, got %v", query)
	}
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return Result{}, fmt.Errorf("svt: threshold must be finite, got %v", threshold)
	}
	ans, ok := s.alg.Next(query, threshold)
	if !ok {
		return Result{}, ErrHalted
	}
	return Result{Above: ans.Above, Numeric: ans.Numeric, Value: ans.Value}, nil
}

// Run feeds a batch of queries with per-query thresholds (thresholds may
// also have length 1, applying one threshold to every query). It stops
// early — without error — when the mechanism halts, so the returned slice
// may be shorter than queries.
func (s *Sparse) Run(queries, thresholds []float64) ([]Result, error) {
	if len(thresholds) != 1 && len(thresholds) != len(queries) {
		return nil, fmt.Errorf("svt: got %d thresholds for %d queries; want 1 or %d",
			len(thresholds), len(queries), len(queries))
	}
	out := make([]Result, 0, len(queries))
	for i, q := range queries {
		th := thresholds[0]
		if len(thresholds) > 1 {
			th = thresholds[i]
		}
		res, err := s.Next(q, th)
		if errors.Is(err, ErrHalted) {
			break
		}
		if err != nil {
			return out, fmt.Errorf("svt: query %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Halted reports whether the mechanism has aborted.
func (s *Sparse) Halted() bool { return s.alg.Halted() }

// Remaining returns how many more positive outcomes may be released.
func (s *Sparse) Remaining() int { return s.alg.Remaining() }

// Answered returns how many queries have been answered so far.
func (s *Sparse) Answered() int { return s.alg.Answered() }

// Budgets returns the realized (ε₁, ε₂, ε₃) split; the three always sum to
// the configured Epsilon.
func (s *Sparse) Budgets() (eps1, eps2, eps3 float64) {
	return s.eps1, s.eps2, s.eps3
}

// Restore fast-forwards a freshly constructed mechanism's accounting to a
// state journaled before a crash: answered queries answered so far and
// positives positive outcomes already released. After Restore the mechanism
// can release at most MaxPositives−positives further positives, and is
// halted when positives == MaxPositives — spent budget is never refreshed
// by a restart. It fails on a used mechanism, one whose counters are not
// both zero.
//
// Restore does not restore the noise. A mechanism rebuilt from its Seed
// and fast-forwarded with FastForward resumes the exact pre-crash stream;
// one built without a Seed draws a fresh threshold noise ρ. Theorem 4's
// proof uses one ρ per run, so after k such restarts it covers
// (k+1)·ε₁ + ε₂ + ε₃, not the configured Epsilon.
func (s *Sparse) Restore(answered, positives int) error {
	return s.alg.Restore(answered, positives)
}

// Draws returns the noise stream's position: how many raw 64-bit draws the
// mechanism's source has consumed, including the ones spent drawing the
// threshold noise at construction. A crash-recovery layer journals it so a
// seeded mechanism can be resumed with FastForward.
func (s *Sparse) Draws() uint64 { return s.alg.Draws() }

// FastForward advances the noise stream to the absolute position draws
// (as previously reported by Draws), discarding the skipped values. For a
// seeded mechanism rebuilt from its original seed this makes the
// continuation bit-identical to the uninterrupted run while never
// re-emitting a pre-crash draw — replaying noise from position 0 would hand
// the analyst deterministic repeats of pre-crash comparisons, enough to
// binary-search the realized noisy threshold. It returns an error if the
// stream is already past draws.
func (s *Sparse) FastForward(draws uint64) error { return s.alg.FastForward(draws) }
