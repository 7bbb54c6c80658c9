package core

import "github.com/dpgo/svt/internal/rng"

// ESVT is the accuracy-enhanced SVT with exponential noise of Liu et al.
// (arXiv 2407.20068): the structure of the paper's standard SVT (Alg7)
// with both noise sources replaced by mean-centered one-sided exponential
// variates,
//
//   - threshold noise: ρ  = Exp(Δ/ε₁) − Δ/ε₁,
//   - query noise:     νᵢ = Exp(mcΔ/ε₂) − mcΔ/ε₂  (m = 2, or 1 when all
//     queries are monotonic).
//
// The classic SVT privacy argument (paper Theorem 1/4) only ever uses
// ONE-SIDED density and survival-function ratios: the substitution
// z → z + Δ needs Pr[ρ = z] ≤ e^{ε₁}·Pr[ρ = z + Δ], and each positive
// outcome needs Pr[ν ≥ t] ≤ e^{ε₂/c}·Pr[ν ≥ t + mΔ]. The exponential
// distribution with scale b satisfies both exactly (f(z)/f(z+Δ) = e^{Δ/b}
// on its support, SF(t)/SF(t+Δ) ≤ e^{Δ/b} everywhere), so the same proof
// gives (ε₁+ε₂)-DP — while Var[Exp(b)] = b² is HALF of Var[Lap(b)] = 2b²,
// which is the accuracy enhancement. Centering by the mean b keeps the
// comparison unbiased and only translates the support, preserving both
// ratio bounds.
//
//	1: ρ = Exp(Δ/ε₁) − Δ/ε₁, count = 0
//	2: for each query qᵢ ∈ Q do
//	3:   νᵢ = Exp(mcΔ/ε₂) − mcΔ/ε₂
//	4:   if qᵢ(D) + νᵢ ≥ Tᵢ + ρ then
//	5:     output aᵢ = ⊤
//	6:     count = count + 1, Abort if count ≥ c
//	7:   else
//	8:     output aᵢ = ⊥
type ESVT struct {
	run
	rho        float64 // fixed noisy-threshold offset, Exp(Δ/ε₁) − Δ/ε₁
	queryScale float64 // mcΔ/ε₂
}

// ESVTConfig carries the inputs of the exponential-noise SVT.
type ESVTConfig struct {
	// Eps1 is the threshold-perturbation budget; must be positive.
	Eps1 float64
	// Eps2 is the query-perturbation budget; must be positive.
	Eps2 float64
	// Delta is the query sensitivity Δ; must be positive.
	Delta float64
	// C is the positive-outcome cutoff; must be positive.
	C int
	// Monotonic halves the query-noise scale to cΔ/ε₂ when all queries
	// move in the same direction between neighbors; both Theorem-5 cases
	// again need only the one-sided exponential ratios.
	Monotonic bool
}

// NewESVT prepares the exponential-noise SVT. It panics on invalid
// configuration, mirroring the package's precondition style. The threshold
// noise is drawn at construction time.
func NewESVT(src *rng.Source, cfg ESVTConfig) *ESVT {
	if src == nil {
		panic("core: nil random source")
	}
	if !(cfg.Eps1 > 0) || !(cfg.Eps2 > 0) {
		panic("core: ESVT requires positive eps1 and eps2")
	}
	if !(cfg.Delta > 0) {
		panic("core: sensitivity must be positive")
	}
	checkCutoff(cfg.C)
	factor := 2 * float64(cfg.C)
	if cfg.Monotonic {
		factor = float64(cfg.C)
	}
	b1 := cfg.Delta / cfg.Eps1
	return &ESVT{
		run:        run{src: src, c: cfg.C},
		rho:        src.Exponential(b1) - b1,
		queryScale: factor * cfg.Delta / cfg.Eps2,
	}
}

// Next implements Algorithm.
func (a *ESVT) Next(q, threshold float64) (Answer, bool) {
	if a.halted {
		return Answer{}, false
	}
	nu := a.src.Exponential(a.queryScale) - a.queryScale
	above := q+nu >= threshold+a.rho
	a.record(above)
	return Answer{Above: above}, true
}
