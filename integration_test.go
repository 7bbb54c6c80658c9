package svt_test

// Integration tests spanning the whole pipeline: dataset generation →
// mining → private selection → utility metrics, and the paper's headline
// qualitative claims at miniature scale. Each test exercises several
// packages together; per-package behaviour is covered by the unit suites.

import (
	"errors"
	"testing"

	svt "github.com/dpgo/svt"
	"github.com/dpgo/svt/dataset"
	"github.com/dpgo/svt/fim"
	"github.com/dpgo/svt/metrics"
	"github.com/dpgo/svt/pmw"
)

// End to end: generate a store, select top-c items privately with both
// non-interactive methods, and check the utility ordering at high budget.
func TestPipelineTopItemSelection(t *testing.T) {
	store, err := dataset.Generate(dataset.Zipf, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	scores := store.SupportsFloat()
	const c = 20
	trueTop := metrics.TopIndices(scores, c)
	top := metrics.TopIndices(scores, c+1)
	threshold := (scores[top[c-1]] + scores[top[c]]) / 2

	for _, method := range []svt.Method{svt.MethodEM, svt.MethodReTr} {
		sel, err := svt.TopC(scores, svt.SelectOptions{
			Epsilon: 20, Sensitivity: 1, C: c, Monotonic: true,
			Method: method, Threshold: threshold, BoostSD: 1, Seed: 31,
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		ser := metrics.SER(scores, trueTop, sel)
		if ser > 0.1 {
			t.Errorf("%v: high-budget SER %v too large", method, ser)
		}
	}
}

// End to end: FP-Growth candidates into a private selection, checked
// against the exact miner.
func TestPipelinePrivateItemsets(t *testing.T) {
	store, err := dataset.Generate(dataset.BMSPOS, 0.002, 8)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	truth, err := fim.MineTopK(store, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != k {
		t.Fatalf("exact miner returned %d sets", len(truth))
	}
	got, err := fim.PrivateTopK(store, fim.PrivateTopKOptions{
		K: k, Epsilon: 100, Method: svt.MethodEM, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("private selection returned %d sets", len(got))
	}
	// At this budget the support mass of the selection must be close to
	// the truth's.
	truthMass, gotMass := 0, 0
	for i := range truth {
		truthMass += truth[i].Support
		gotMass += got[i].Support
	}
	if float64(gotMass) < 0.9*float64(truthMass) {
		t.Errorf("selected mass %d far below truth %d", gotMass, truthMass)
	}
}

// The paper's two headline orderings at miniature scale: the optimal
// allocation beats 1:1 and EM beats single-pass SVT, on a fresh workload
// (not the experiments package's own fixtures).
func TestPipelinePaperOrderings(t *testing.T) {
	store, err := dataset.Generate(dataset.Kosarak, 0.005, 77)
	if err != nil {
		t.Fatal(err)
	}
	scores := store.SupportsFloat()
	// ε is chosen so the miniature workload sits in the same regime as the
	// paper's full-scale one: EM needs ε·gap/c ≳ ln(#tail candidates) to
	// separate the head from the 41k-item tail (at full scale ε=0.1
	// suffices; 200× smaller supports need a proportionally larger ε).
	const c, eps, runs = 40, 2.0, 12
	trueTop := metrics.TopIndices(scores, c)
	top := metrics.TopIndices(scores, c+1)
	threshold := (scores[top[c-1]] + scores[top[c]]) / 2

	meanSER := func(method svt.Method, alloc svt.Allocation) float64 {
		sum := 0.0
		for r := 0; r < runs; r++ {
			sel, err := svt.TopC(scores, svt.SelectOptions{
				Epsilon: eps, Sensitivity: 1, C: c, Monotonic: true,
				Method: method, Threshold: threshold, Allocation: alloc,
				Seed: uint64(5000 + r),
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += metrics.SER(scores, trueTop, sel)
		}
		return sum / runs
	}
	oneOne := meanSER(svt.MethodSVT, svt.Allocation1x1)
	optimal := meanSER(svt.MethodSVT, svt.AllocationAuto)
	em := meanSER(svt.MethodEM, svt.AllocationAuto)
	if !(optimal <= oneOne+0.02) {
		t.Errorf("optimal allocation SER %v worse than 1:1 %v", optimal, oneOne)
	}
	// EM's dominance over SVT is a claim about the paper's configuration
	// (ε=0.1, full-scale supports) and is asserted by the experiments
	// suite; here just require EM to be accurate in a budget-rich regime.
	if em > 0.15 {
		t.Errorf("EM SER %v too large at high budget", em)
	}
}

// The interactive engine built on the public SVT gate answers repeated
// workloads with bounded data accesses — the intro's motivating scenario.
func TestPipelineInteractiveEngine(t *testing.T) {
	store, err := dataset.Generate(dataset.BMSPOS, 0.002, 9)
	if err != nil {
		t.Fatal(err)
	}
	supports := store.ItemSupports()
	hist := make([]float64, 50)
	for item, sup := range supports {
		hist[item%50] += float64(sup)
	}
	engine, err := pmw.New(pmw.Config{
		Histogram: hist, Epsilon: 5, MaxUpdates: 10, Threshold: 40, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]int{{0, 1, 2}, {10, 20}, {0, 1, 2}, {5}, {10, 20}, {0, 1, 2}}
	for cycle := 0; cycle < 10; cycle++ {
		for _, q := range queries {
			if _, err := engine.Answer(q); err != nil && !errors.Is(err, pmw.ErrExhausted) {
				t.Fatal(err)
			}
		}
	}
	if engine.Answered() != 60 {
		t.Fatalf("answered %d", engine.Answered())
	}
	if engine.Updates() > 10 {
		t.Fatalf("updates %d exceeded cutoff", engine.Updates())
	}
}
