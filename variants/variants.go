// Package variants exposes the six historical SVT variants of the paper's
// Figure 1 behind a common streaming interface, for research, auditing and
// comparison.
//
// Only NewProposed (Algorithm 1) and NewDPBook (Algorithm 2) are
// differentially private. NewRoth11, NewLeeClifton, NewStoddard and
// NewChen implement published variants whose privacy claims the paper
// refutes — they leak, and exist here so that the leaks can be measured
// (see the audit package). Never use them on sensitive data.
package variants

import (
	"fmt"
	"math"

	svt "github.com/dpgo/svt"
	"github.com/dpgo/svt/internal/core"
	"github.com/dpgo/svt/internal/rng"
)

// Stream answers threshold queries one at a time. ok reports whether the
// variant was still live; it becomes false after a cutoff variant has
// released its c-th positive outcome.
type Stream interface {
	Next(query, threshold float64) (res svt.Result, ok bool)
	Halted() bool
}

// stream adapts an internal algorithm to the public interface.
type stream struct{ alg core.Algorithm }

func (s stream) Next(query, threshold float64) (svt.Result, bool) {
	ans, ok := s.alg.Next(query, threshold)
	return svt.Result{Above: ans.Above, Numeric: ans.Numeric, Value: ans.Value}, ok
}

func (s stream) Halted() bool { return s.alg.Halted() }

func check(epsilon, delta float64, c int, needC bool) error {
	if !(epsilon > 0) || math.IsInf(epsilon, 0) {
		return fmt.Errorf("variants: epsilon must be positive and finite, got %v", epsilon)
	}
	if !(delta > 0) || math.IsInf(delta, 0) {
		return fmt.Errorf("variants: sensitivity must be positive and finite, got %v", delta)
	}
	if needC && c <= 0 {
		return fmt.Errorf("variants: cutoff c must be positive, got %d", c)
	}
	return nil
}

// NewProposed returns the paper's Algorithm 1, an ε-DP SVT with fixed
// threshold noise Lap(Δ/ε₁) and query noise Lap(2cΔ/ε₂). Seed 0 means
// crypto-seeded.
func NewProposed(epsilon, delta float64, c int, seed uint64) (Stream, error) {
	if err := check(epsilon, delta, c, true); err != nil {
		return nil, err
	}
	return stream{core.NewAlg1(rng.NewSeeded(seed), epsilon, delta, c)}, nil
}

// NewDPBook returns Algorithm 2, the SVT of Dwork and Roth's 2014 book:
// ε-DP, but with threshold noise Lap(cΔ/ε₁) resampled after every positive
// outcome, giving much worse utility than NewProposed.
func NewDPBook(epsilon, delta float64, c int, seed uint64) (Stream, error) {
	if err := check(epsilon, delta, c, true); err != nil {
		return nil, err
	}
	return stream{core.NewAlg2(rng.NewSeeded(seed), epsilon, delta, c)}, nil
}

// NewRoth11 returns Algorithm 3 from Roth's 2011 lecture notes.
//
// NOT PRIVATE: it outputs the noisy query answer for positive outcomes and
// is not ε-DP for any finite ε (paper Theorem 6). Research use only.
func NewRoth11(epsilon, delta float64, c int, seed uint64) (Stream, error) {
	if err := check(epsilon, delta, c, true); err != nil {
		return nil, err
	}
	return stream{core.NewAlg3(rng.NewSeeded(seed), epsilon, delta, c)}, nil
}

// NewLeeClifton returns Algorithm 4 from Lee and Clifton 2014.
//
// NOT ε-DP: its query noise does not scale with c, so it satisfies only
// ((1+6c)/4)·ε-DP ( ((1+3c)/4)·ε for monotonic queries). Research use only.
func NewLeeClifton(epsilon, delta float64, c int, seed uint64) (Stream, error) {
	if err := check(epsilon, delta, c, true); err != nil {
		return nil, err
	}
	return stream{core.NewAlg4(rng.NewSeeded(seed), epsilon, delta, c)}, nil
}

// NewStoddard returns Algorithm 5 from Stoddard et al. 2014.
//
// NOT PRIVATE: it adds no noise to query answers and has no cutoff; it is
// not ε-DP for any finite ε (paper Theorem 3). Research use only.
func NewStoddard(epsilon, delta float64, seed uint64) (Stream, error) {
	if err := check(epsilon, delta, 0, false); err != nil {
		return nil, err
	}
	return stream{core.NewAlg5(rng.NewSeeded(seed), epsilon, delta)}, nil
}

// NewChen returns Algorithm 6 from Chen et al. 2015.
//
// NOT PRIVATE: its query noise does not scale with c and it has no cutoff;
// it is not ε-DP for any finite ε (paper Theorem 7). Research use only.
func NewChen(epsilon, delta float64, seed uint64) (Stream, error) {
	if err := check(epsilon, delta, 0, false); err != nil {
		return nil, err
	}
	return stream{core.NewAlg6(rng.NewSeeded(seed), epsilon, delta)}, nil
}

// NewGPTT returns the Generalized Private Threshold Testing algorithm of
// Chen and Machanavajjhala 2015, the abstraction analyzed in the paper's
// §3.3, with independent threshold/query budgets.
//
// NOT PRIVATE for any finite ε. Research use only.
func NewGPTT(eps1, eps2, delta float64, seed uint64) (Stream, error) {
	if !(eps1 > 0) || !(eps2 > 0) || math.IsInf(eps1, 0) || math.IsInf(eps2, 0) {
		return nil, fmt.Errorf("variants: eps1 and eps2 must be positive and finite, got %v and %v", eps1, eps2)
	}
	if !(delta > 0) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("variants: sensitivity must be positive and finite, got %v", delta)
	}
	return stream{core.NewGPTT(rng.NewSeeded(seed), eps1, eps2, delta)}, nil
}
