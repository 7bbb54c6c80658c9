package core

import "github.com/dpgo/svt/internal/rng"

// Alg7 is the paper's proposed standard SVT (Algorithm 7), the generalized
// form of Alg1 with three separately tunable budget shares:
//
//   - ε₁ perturbs the threshold:           ρ = Lap(Δ/ε₁),
//   - ε₂ perturbs the query answers:       νᵢ = Lap(2cΔ/ε₂)
//     (Lap(cΔ/ε₂) when all queries are monotonic, Theorem 5),
//   - ε₃ (optional) releases numeric answers for positive outcomes via the
//     Laplace mechanism: aᵢ = qᵢ(D) + Lap(cΔ/ε₃).
//
// Theorem 4 proves Alg7 is (ε₁+ε₂+ε₃)-DP. Section 4.2 derives the
// variance-minimizing allocation ε₁:ε₂ = 1:(2c)^{2/3} (1:c^{2/3} in the
// monotonic case), which the evaluation shows is far better than the
// conventional 1:1 split.
//
//	1: ρ = Lap(Δ/ε₁), count = 0
//	2: for each query qᵢ ∈ Q do
//	3:   νᵢ = Lap(2cΔ/ε₂)
//	4:   if qᵢ(D) + νᵢ ≥ Tᵢ + ρ then
//	5:     if ε₃ > 0 then
//	6:       output aᵢ = qᵢ(D) + Lap(cΔ/ε₃)
//	7:     else
//	8:       output aᵢ = ⊤
//	9:     count = count + 1, Abort if count ≥ c
//	10:  else
//	11:    output aᵢ = ⊥
type Alg7 struct {
	run
	rho         float64
	queryScale  float64 // 2cΔ/ε₂ (cΔ/ε₂ when monotonic)
	answerScale float64 // cΔ/ε₃; 0 disables numeric answers
}

// Alg7Config carries the inputs of Algorithm 7.
type Alg7Config struct {
	// Eps1 is the threshold-perturbation budget; must be positive.
	Eps1 float64
	// Eps2 is the query-perturbation budget; must be positive.
	Eps2 float64
	// Eps3 is the numeric-answer budget; zero disables numeric answers,
	// negative values are invalid.
	Eps3 float64
	// Delta is the query sensitivity Δ; must be positive.
	Delta float64
	// C is the positive-outcome cutoff; must be positive.
	C int
	// Monotonic enables the Theorem-5 refinement: when all queries move in
	// the same direction between neighbors, Lap(cΔ/ε₂) query noise
	// suffices for (ε₁+ε₂+ε₃)-DP.
	Monotonic bool
}

// NewAlg7 prepares the standard SVT. It panics on invalid configuration,
// mirroring the explicit preconditions of the paper's pseudocode.
func NewAlg7(src *rng.Source, cfg Alg7Config) *Alg7 {
	if src == nil {
		panic("core: nil random source")
	}
	if !(cfg.Eps1 > 0) || !(cfg.Eps2 > 0) {
		panic("core: Alg7 requires positive eps1 and eps2")
	}
	if cfg.Eps3 < 0 {
		panic("core: Alg7 eps3 must be non-negative")
	}
	if !(cfg.Delta > 0) {
		panic("core: sensitivity must be positive")
	}
	checkCutoff(cfg.C)
	cf := float64(cfg.C)
	factor := 2 * cf
	if cfg.Monotonic {
		factor = cf
	}
	a := &Alg7{
		run:        run{src: src, c: cfg.C},
		rho:        src.Laplace(cfg.Delta / cfg.Eps1),
		queryScale: factor * cfg.Delta / cfg.Eps2,
	}
	if cfg.Eps3 > 0 {
		a.answerScale = cf * cfg.Delta / cfg.Eps3
	}
	return a
}

// Next implements Algorithm.
func (a *Alg7) Next(q, threshold float64) (Answer, bool) {
	if a.halted {
		return Answer{}, false
	}
	nu := a.src.Laplace(a.queryScale)
	above := q+nu >= threshold+a.rho
	a.record(above)
	if above && a.answerScale > 0 {
		// Second phase (Theorem 4): an independent Laplace mechanism
		// releases the count for queries found above the threshold.
		return Answer{Above: true, Numeric: true, Value: q + a.src.Laplace(a.answerScale)}, true
	}
	return Answer{Above: above}, true
}
