package core

import "github.com/dpgo/svt/internal/rng"

// Alg2 is the SVT of Dwork and Roth's 2014 book (Figure 1, Algorithm 2).
// It satisfies ε-DP but is much less accurate than Alg1 because the
// threshold noise scales with c, an artifact of the design choice to
// resample ρ after every positive outcome.
//
//	1: ε₁ = ε/2, ρ = Lap(cΔ/ε₁)
//	2: ε₂ = ε − ε₁, count = 0
//	3: for each query qᵢ ∈ Q do
//	4:   νᵢ = Lap(2cΔ/ε₁)
//	5:   if qᵢ(D) + νᵢ ≥ T + ρ then
//	6:     output aᵢ = ⊤, ρ = Lap(cΔ/ε₂)
//	7:     count = count + 1, Abort if count ≥ c
//	8:   else
//	9:     output aᵢ = ⊥
//
// (With ε₁ = ε₂ = ε/2 the book's Lap(2cΔ/ε₁) query noise equals Alg1's
// Lap(2cΔ/ε₂); the resampling on Line 6 switches the ρ scale to cΔ/ε₂,
// which is the same number too.)
type Alg2 struct {
	run
	rho        float64
	rhoScale2  float64 // cΔ/ε₂, used when resampling after a ⊤
	queryScale float64 // 2cΔ/ε₁
}

// NewAlg2 prepares the Dwork-Roth book SVT.
func NewAlg2(src *rng.Source, epsilon, delta float64, c int) *Alg2 {
	checkCommon(src, epsilon, delta)
	checkCutoff(c)
	eps1 := epsilon / 2
	eps2 := epsilon - eps1
	cf := float64(c)
	return &Alg2{
		run:        run{src: src, c: c},
		rho:        src.Laplace(cf * delta / eps1),
		rhoScale2:  cf * delta / eps2,
		queryScale: 2 * cf * delta / eps1,
	}
}

// Next implements Algorithm.
func (a *Alg2) Next(q, threshold float64) (Answer, bool) {
	if a.halted {
		return Answer{}, false
	}
	nu := a.src.Laplace(a.queryScale)
	above := q+nu >= threshold+a.rho
	if above {
		a.rho = a.src.Laplace(a.rhoScale2) // Line 6: refresh the noisy threshold
	}
	a.record(above)
	return Answer{Above: above}, true
}

// Rho returns the current noisy-threshold offset ρ. Unlike Alg1 and Alg7,
// Alg2 resamples ρ after every positive outcome (Line 6), so the current
// value is not re-derivable by rebuilding from the seed — crash recovery
// must journal it alongside the stream position.
func (a *Alg2) Rho() float64 { return a.rho }

// SetRho overwrites ρ for crash recovery; see Rho.
func (a *Alg2) SetRho(v float64) { a.rho = v }
