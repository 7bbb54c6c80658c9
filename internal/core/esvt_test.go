package core

import (
	"math"
	"testing"

	"github.com/dpgo/svt/internal/rng"
)

func TestESVTCutoffAndDeterminism(t *testing.T) {
	const c = 3
	build := func(seed uint64) *ESVT {
		return NewESVT(rng.New(seed), ESVTConfig{Eps1: 0.3, Eps2: 0.7, Delta: 1, C: c})
	}
	alg := build(77)
	out := Run(alg, mkQueries(50, 1e9), []float64{0})
	if len(out) != c || !alg.Halted() || alg.Remaining() != 0 {
		t.Fatalf("answered %d queries before abort (halted=%v remaining=%d), want exactly c=%d",
			len(out), alg.Halted(), alg.Remaining(), c)
	}
	if _, ok := alg.Next(1e9, 0); ok {
		t.Fatal("Next succeeded after halt")
	}

	// Same seed, same stream: the coin-flip outcomes must be identical.
	script := mkQueries(40, 0)
	a, b := build(5), build(5)
	ra := Run(a, script, []float64{0})
	rb := Run(b, script, []float64{0})
	if len(ra) != len(rb) {
		t.Fatalf("identically seeded runs answered %d vs %d queries", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("identically seeded runs diverged at query %d", i)
		}
	}
}

func TestESVTRestoreAndSkip(t *testing.T) {
	alg := NewESVT(rng.New(9), ESVTConfig{Eps1: 0.5, Eps2: 0.5, Delta: 1, C: 4})
	if alg.Draws() == 0 {
		t.Fatal("construction drew no threshold noise")
	}
	if err := alg.Restore(4, 4); err != nil {
		t.Fatal(err)
	}
	if !alg.Halted() || alg.Remaining() != 0 {
		t.Fatalf("restored-to-cutoff: halted=%v remaining=%d", alg.Halted(), alg.Remaining())
	}
	// Skip keeps the stream position exact: a twin that answers one query
	// and a twin that skips the same number of draws produce the same next
	// value.
	x, y := NewESVT(rng.New(3), ESVTConfig{Eps1: 0.5, Eps2: 0.5, Delta: 1, C: 4}),
		NewESVT(rng.New(3), ESVTConfig{Eps1: 0.5, Eps2: 0.5, Delta: 1, C: 4})
	x.Next(0, 0)
	if err := y.FastForward(x.Draws()); err != nil {
		t.Fatal(err)
	}
	if x.Draws() != y.Draws() {
		t.Fatalf("skip landed at %d, want %d", y.Draws(), x.Draws())
	}
	ax, _ := x.Next(0.25, 0)
	ay, _ := y.Next(0.25, 0)
	if ax != ay {
		t.Fatal("skipped twin diverged from the answering twin")
	}
}

// expDiffSF returns Pr[E₂ − E₁ ≥ s] for independent exponentials with
// means b2 and b1: the closed-form law of esvt's comparison noise before
// mean-centering. For s ≥ 0 the tail is (b₂/(b₁+b₂))·e^{−s/b₂}; negative s
// mirrors through the complement.
func expDiffSF(s, b2, b1 float64) float64 {
	if s >= 0 {
		return b2 / (b1 + b2) * math.Exp(-s/b2)
	}
	return 1 - b1/(b1+b2)*math.Exp(s/b1)
}

// TestESVTPositiveRateMatchesClosedForm checks the implemented comparison
// q + (E₂−b₂) ≥ T + (E₁−b₁) against the analytic law of E₂−E₁ at several
// margins. The trials are seeded, so the test is deterministic.
func TestESVTPositiveRateMatchesClosedForm(t *testing.T) {
	const (
		trials = 40000
		eps1   = 0.4
		eps2   = 0.6
		delta  = 1.0
		c      = 1
	)
	b1 := delta / eps1
	b2 := 2 * float64(c) * delta / eps2
	for _, margin := range []float64{-2, 0, 1.5} {
		hits := 0
		for i := 0; i < trials; i++ {
			alg := NewESVT(rng.New(uint64(i)+1), ESVTConfig{Eps1: eps1, Eps2: eps2, Delta: delta, C: c})
			if ans, ok := alg.Next(margin, 0); !ok {
				t.Fatal("fresh mechanism refused its first query")
			} else if ans.Above {
				hits++
			}
		}
		got := float64(hits) / trials
		// Positive iff margin + (E₂−b₂) − (E₁−b₁) ≥ 0, i.e. E₂−E₁ ≥ b₂−b₁−margin.
		want := expDiffSF(b2-b1-margin, b2, b1)
		if math.Abs(got-want) > 0.015 {
			t.Errorf("margin %v: positive rate %.4f, closed form %.4f", margin, got, want)
		}
	}
}

// TestESVTHalvesComparisonVariance pins the accuracy enhancement the
// mechanism exists for: the exponential comparison noise ν − ρ has half
// the variance of the Laplace SVT's at the same budget split
// (Var[Exp(b)] = b² vs Var[Lap(b)] = 2b²). Empirical, seeded, against the
// closed form b₁² + b₂².
func TestESVTHalvesComparisonVariance(t *testing.T) {
	const (
		trials = 30000
		eps1   = 0.5
		eps2   = 0.5
		delta  = 1.0
		c      = 2
	)
	b1 := delta / eps1
	b2 := 2 * float64(c) * delta / eps2
	src := rng.New(424242)
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		d := (src.Exponential(b2) - b2) - (src.Exponential(b1) - b1)
		sum += d
		sumSq += d * d
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	want := b1*b1 + b2*b2 // half the Laplace 2(b₁²+b₂²)
	if math.Abs(mean) > 0.1*math.Sqrt(want) {
		t.Errorf("comparison noise mean %.4f, want ~0 (mean-centering broken)", mean)
	}
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("comparison variance %.3f, want ~%.3f (= half the Laplace variance)", variance, want)
	}
}
