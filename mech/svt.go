package mech

import (
	"fmt"
	"math"

	"github.com/dpgo/svt/internal/core"
	"github.com/dpgo/svt/internal/rng"
)

// svtFamily registers the SVT mechanisms. They share one adapter because
// they share one run state (internal/core): counting, restore checks and
// fast-forward are written once there, so a member is a summary, its
// capability flags and a constructor for its core machine.
var svtFamily = []svtMechanism{
	{
		name:    "sparse",
		summary: "the paper's corrected, generalized SVT (Algorithm 7): optimal ε₁:ε₂ allocation, optional monotonic refinement and ε₃ numeric releases",
		caps:    Capabilities{NumericReleases: true, MonotonicRefinement: true, Seedable: true},
		build: func(src *rng.Source, p Params) (machine, [3]float64) {
			eps := optimalSplit(p, p.Epsilon*p.AnswerFraction)
			return core.NewAlg7(src, core.Alg7Config{
				Eps1: eps[0], Eps2: eps[1], Eps3: eps[2],
				Delta: p.delta(), C: p.MaxPositives, Monotonic: p.Monotonic,
			}), eps
		},
	},
	{
		// Liu et al.'s exponential-noise SVT; see core.ESVT for the
		// privacy argument. The variance-minimizing allocation has the
		// form of the paper's §4.2, because the objective b₁²+b₂² differs
		// from the Laplace 2(b₁²+b₂²) only by a constant factor.
		name:    "esvt",
		summary: "accuracy-enhanced SVT with mean-centered exponential noise (Liu et al., arXiv 2407.20068): half the comparison variance of Laplace at the same ε",
		caps:    Capabilities{MonotonicRefinement: true, Seedable: true},
		build: func(src *rng.Source, p Params) (machine, [3]float64) {
			eps := optimalSplit(p, 0)
			return core.NewESVT(src, core.ESVTConfig{
				Eps1: eps[0], Eps2: eps[1],
				Delta: p.delta(), C: p.MaxPositives, Monotonic: p.Monotonic,
			}), eps
		},
	},
	{
		name:    "proposed",
		summary: "the paper's Algorithm 1: fixed noisy threshold, hard-coded ε₁ = ε₂ = ε/2 split, indicator releases only",
		caps:    Capabilities{Seedable: true},
		build: func(src *rng.Source, p Params) (machine, [3]float64) {
			return core.NewAlg1(src, p.Epsilon, p.delta(), p.MaxPositives), [3]float64{p.Epsilon / 2, p.Epsilon / 2, 0}
		},
	},
	{
		name:    "dpbook",
		summary: "Algorithm 2, the Dwork-Roth book SVT: threshold noise scales with c and is resampled after every positive outcome",
		caps:    Capabilities{Seedable: true},
		build: func(src *rng.Source, p Params) (machine, [3]float64) {
			return core.NewAlg2(src, p.Epsilon, p.delta(), p.MaxPositives), [3]float64{p.Epsilon / 2, p.Epsilon / 2, 0}
		},
	},
}

func init() {
	for i := range svtFamily {
		m := &svtFamily[i]
		Default.MustRegister(Factory{Name: m.name, Summary: m.summary, Caps: m.caps, New: m.newInstance})
	}
}

// svtMechanism is one registration of the SVT family.
type svtMechanism struct {
	name    string
	summary string
	caps    Capabilities
	// build draws a machine from src for already-checked p, and returns
	// it with its realized (ε₁, ε₂, ε₃).
	build func(src *rng.Source, p Params) (machine, [3]float64)
}

// machine is what the SVT family's core algorithms (Alg1, Alg2, Alg7 and
// ESVT) share.
type machine interface {
	Next(q, threshold float64) (core.Answer, bool)
	Halted() bool
	Remaining() int
	Answered() int
	Restore(answered, positives int) error
	Draws() uint64
	FastForward(draws uint64) error
}

// rhoMachine is a machine whose noisy threshold ρ is resampled mid-run
// (Alg2), so seed and stream position alone cannot re-derive it.
type rhoMachine interface {
	Rho() float64
	SetRho(v float64)
}

// optimalSplit returns (ε₁, ε₂, ε₃) with ε − ε₃ split into the
// variance-minimizing ε₁:ε₂ of §4.2.
func optimalSplit(p Params, eps3 float64) [3]float64 {
	eps1, eps2 := core.OptimalRatio(p.Monotonic).Split(p.Epsilon-eps3, p.MaxPositives)
	return [3]float64{eps1, eps2, eps3}
}

// check rejects invalid parameters, and every knob the mechanism's
// capability flags do not offer: a silently ignored knob would let an
// analyst believe they got a refinement they did not.
func (m *svtMechanism) check(p Params) error {
	if len(p.Histogram) > 0 {
		return fmt.Errorf("mech: histogram is not valid for %s sessions", m.name)
	}
	if isSet(p.UpdateFraction) || isSet(p.LearningRate) {
		return fmt.Errorf("mech: updateFraction/learningRate are not valid for %s sessions", m.name)
	}
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("mech: %s epsilon must be positive and finite, got %v", m.name, p.Epsilon)
	}
	if d := p.delta(); !(d > 0) || math.IsInf(d, 0) {
		return fmt.Errorf("mech: %s sensitivity must be positive and finite, got %v", m.name, p.Sensitivity)
	}
	if p.MaxPositives <= 0 {
		return fmt.Errorf("mech: %s maxPositives must be positive, got %d", m.name, p.MaxPositives)
	}
	if p.Monotonic && !m.caps.MonotonicRefinement {
		return fmt.Errorf("mech: %s does not support the monotonic refinement (use sparse)", m.name)
	}
	if !m.caps.NumericReleases && isSet(p.AnswerFraction) {
		return fmt.Errorf("mech: %s does not support ε₃ numeric releases (use sparse)", m.name)
	}
	if f := p.AnswerFraction; f < 0 || f >= 1 || math.IsNaN(f) {
		return fmt.Errorf("mech: %s answerFraction must be in [0, 1), got %v", m.name, f)
	}
	return nil
}

func (m *svtMechanism) newInstance(p Params) (Instance, error) {
	if err := m.check(p); err != nil {
		return nil, err
	}
	mach, eps := m.build(rng.NewSeeded(p.Seed), p)
	inst := &svtInstance{mech: m, m: mach, eps: eps, seeded: p.Seed != 0}
	inst.rho, _ = mach.(rhoMachine)
	return inst, nil
}

// svtInstance serves one SVT machine through the Instance seam.
type svtInstance struct {
	mech *svtMechanism
	m    machine
	eps  [3]float64
	// rho is m's resampled threshold, nil for a machine whose ρ is fixed
	// at construction.
	rho    rhoMachine
	seeded bool
}

// Validate wants no buckets, a present and finite threshold, and a finite
// value.
func (s *svtInstance) Validate(q Query) error {
	if len(q.Buckets) > 0 {
		return fmt.Errorf("mech: buckets are only valid for histogram mechanisms")
	}
	if math.IsNaN(q.Threshold) {
		return fmt.Errorf("mech: no threshold: session has no default and the query carries none")
	}
	if math.IsNaN(q.Value) || math.IsInf(q.Value, 0) || math.IsInf(q.Threshold, 0) {
		return fmt.Errorf("mech: query and threshold must be finite, got %v and %v", q.Value, q.Threshold)
	}
	return nil
}

func (s *svtInstance) Answer(q Query) (Result, bool, error) {
	a, ok := s.m.Next(q.Value, q.Threshold)
	if !ok {
		return Result{}, true, nil
	}
	return Result{Above: a.Above, Numeric: a.Numeric, Value: a.Value, SpentPositive: a.Above}, false, nil
}

func (s *svtInstance) Halted() bool   { return s.m.Halted() }
func (s *svtInstance) Remaining() int { return s.m.Remaining() }
func (s *svtInstance) Answered() int  { return s.m.Answered() }

func (s *svtInstance) Budgets() (float64, float64, float64) { return s.eps[0], s.eps[1], s.eps[2] }

func (s *svtInstance) Draws() (uint64, uint64) { return s.m.Draws(), 0 }

func (s *svtInstance) FastForward(main, aux uint64) error {
	if aux != 0 {
		return fmt.Errorf("mech: %s has a single noise stream, cannot fast-forward aux stream to %d", s.mech.name, aux)
	}
	return s.m.FastForward(main)
}

func (s *svtInstance) Restore(answered, positives int) error {
	return s.m.Restore(answered, positives)
}

// MarshalState journals a resampled ρ, which seed and stream position
// cannot re-derive. Fixed-ρ machines and unseeded sessions, whose recovery
// draws fresh noise anyway, have nothing to journal.
func (s *svtInstance) MarshalState() []byte {
	if s.rho == nil || !s.seeded {
		return nil
	}
	return RhoStateBlob(s.rho.Rho())
}

func (s *svtInstance) UnmarshalState(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if s.rho == nil {
		return fmt.Errorf("mech: %s journals no evolving state, got a %d-byte blob", s.mech.name, len(data))
	}
	rho, err := rhoFromState(data)
	if err != nil {
		return err
	}
	s.rho.SetRho(rho)
	return nil
}
