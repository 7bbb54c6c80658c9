package variants

import (
	"fmt"
	"math"

	"github.com/dpgo/svt/internal/rng"
)

// BrokenErrorGate is the §3.4 error test exactly as used in the original
// iterative-construction papers (Hardt-Rothblum 2010, Roth-Roughgarden
// 2010): "if |q̃ᵢ − qᵢ(D) + νᵢ| ≥ T + ρ then output ⊤".
//
// NOT PRIVATE AS CLAIMED: the compared quantity is always non-negative, so
// the first ⊤ reveals that the noisy threshold T + ρ is at most the
// released magnitude — in particular any ⊤ at all reveals ρ ≥ −T. Once ρ
// is (partially) public, the "negative answers are free" argument
// collapses, the same failure mode as Algorithm 3's numeric outputs.
// TestBrokenErrorGateLeaksThresholdSign measures the leak; use
// svt.ErrorGate for the corrected form. Research use only.
type BrokenErrorGate struct {
	src        *rng.Source
	rho        float64
	threshold  float64
	queryScale float64
	c          int
	count      int
	halted     bool
}

// NewBrokenErrorGate builds the historical (flawed) error gate. Noise
// scales follow Algorithm 3 (the lecture-notes abstraction of those works):
// ρ ~ Lap(Δ/ε₁), ν ~ Lap(cΔ/ε₂) with ε₁ = ε₂ = ε/2.
func NewBrokenErrorGate(threshold, epsilon, delta float64, c int, seed uint64) (*BrokenErrorGate, error) {
	if !(threshold > 0) || math.IsInf(threshold, 0) {
		return nil, fmt.Errorf("variants: error threshold must be positive and finite, got %v", threshold)
	}
	if err := check(epsilon, delta, c, true); err != nil {
		return nil, err
	}
	src := rng.NewSeeded(seed)
	eps1 := epsilon / 2
	eps2 := epsilon - eps1
	return &BrokenErrorGate{
		src:        src,
		rho:        src.Laplace(delta / eps1),
		threshold:  threshold,
		queryScale: float64(c) * delta / eps2,
		c:          c,
	}, nil
}

// ExceedsThreshold runs the flawed test. ok is false once the gate has
// issued c positive reports.
func (g *BrokenErrorGate) ExceedsThreshold(estimate, truth float64) (above, ok bool) {
	if g.halted {
		return false, false
	}
	// The flaw, verbatim: noise inside the absolute value.
	if math.Abs(estimate-truth+g.src.Laplace(g.queryScale)) >= g.threshold+g.rho {
		g.count++
		if g.count >= g.c {
			g.halted = true
		}
		return true, true
	}
	return false, true
}

// Halted reports whether the gate has aborted.
func (g *BrokenErrorGate) Halted() bool { return g.halted }
