package core

import "github.com/dpgo/svt/internal/rng"

// Alg1 is the paper's proposed SVT instantiation (Figure 1, Algorithm 1),
// proved ε-DP in Theorem 2.
//
//	1: ε₁ = ε/2, ρ = Lap(Δ/ε₁)
//	2: ε₂ = ε − ε₁, count = 0
//	3: for each query qᵢ ∈ Q do
//	4:   νᵢ = Lap(2cΔ/ε₂)
//	5:   if qᵢ(D) + νᵢ ≥ Tᵢ + ρ then
//	6:     output aᵢ = ⊤
//	7:     count = count + 1, Abort if count ≥ c
//	8:   else
//	9:     output aᵢ = ⊥
//
// Its two improvements over the Dwork-Roth book version (Alg2) are that the
// threshold noise ρ does not scale with c and is never resampled.
type Alg1 struct {
	run
	rho        float64 // fixed noisy-threshold offset, Lap(Δ/ε₁)
	queryScale float64 // 2cΔ/ε₂
}

// NewAlg1 prepares Algorithm 1 with total budget epsilon, query sensitivity
// delta and positive-outcome cutoff c. It draws the threshold noise
// immediately (Line 1).
func NewAlg1(src *rng.Source, epsilon, delta float64, c int) *Alg1 {
	checkCommon(src, epsilon, delta)
	checkCutoff(c)
	eps1 := epsilon / 2
	eps2 := epsilon - eps1
	return &Alg1{
		run:        run{src: src, c: c},
		rho:        src.Laplace(delta / eps1),
		queryScale: 2 * float64(c) * delta / eps2,
	}
}

// Next implements Algorithm.
func (a *Alg1) Next(q, threshold float64) (Answer, bool) {
	if a.halted {
		return Answer{}, false
	}
	nu := a.src.Laplace(a.queryScale)
	above := q+nu >= threshold+a.rho
	a.record(above)
	return Answer{Above: above}, true
}
