package mech

// Conformance suite: every mechanism registered in the default registry —
// including any future one — must satisfy the contracts the session server
// and its crash-recovery codec lean on. A new mechanism that registers a
// Factory is picked up here automatically; passing this suite is the
// admission test for being servable.

import (
	"math"
	"testing"
)

func ptr(v float64) *float64 { return &v }

// conformanceParams builds valid create parameters for any factory, using
// its capability flags to decide the shape.
func conformanceParams(f Factory, seed uint64) Params {
	p := Params{Epsilon: 1, MaxPositives: 4, Seed: seed}
	if f.Caps.NeedsHistogram {
		p.Epsilon = 2
		p.Threshold = ptr(5.0)
		p.Histogram = []float64{100, 5, 80, 10, 240, 30}
	}
	return p
}

// sureSpend is a query that consumes positive/update budget with
// probability indistinguishable from 1 for the conformance parameters.
func sureSpend(f Factory) Query {
	if f.Caps.NeedsHistogram {
		// The uniform prior is ~77.5 on bucket 4 vs a truth of 240: the
		// error dwarfs the threshold of 5 and every realistic gate draw.
		return Query{Buckets: []int{4}}
	}
	return Query{Value: 0, Threshold: -1e12}
}

// coinScript is a deterministic script whose outcomes genuinely depend on
// the noise: margins sit on top of the threshold.
func coinScript(f Factory, n int) []Query {
	out := make([]Query, n)
	for i := range out {
		if f.Caps.NeedsHistogram {
			out[i] = Query{Buckets: []int{i % 6, (i + 3) % 6}}
			continue
		}
		out[i] = Query{Value: float64(i%5) - 2, Threshold: 0}
	}
	return out
}

func mustNew(t *testing.T, f Factory, p Params) Instance {
	t.Helper()
	inst, err := f.New(p)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return inst
}

func TestConformanceCreateAnswerHalt(t *testing.T) {
	for _, f := range Default.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			p := conformanceParams(f, 21)
			inst := mustNew(t, f, p)

			e1, e2, e3 := inst.Budgets()
			if !(e1 > 0) || !(e2 > 0) || e3 < 0 {
				t.Fatalf("budgets (%v, %v, %v): ε₁ and ε₂ must be positive, ε₃ non-negative", e1, e2, e3)
			}
			if sum := e1 + e2 + e3; math.Abs(sum-p.Epsilon) > 1e-9 {
				t.Fatalf("budgets sum to %v, want the configured ε %v", sum, p.Epsilon)
			}
			if inst.Halted() || inst.Remaining() != p.MaxPositives || inst.Answered() != 0 {
				t.Fatalf("fresh instance: halted=%v remaining=%d answered=%d", inst.Halted(), inst.Remaining(), inst.Answered())
			}

			q := sureSpend(f)
			if err := inst.Validate(q); err != nil {
				t.Fatalf("sure-spend query rejected: %v", err)
			}
			spent, answered := 0, 0
			for i := 0; i < 50 && !inst.Halted(); i++ {
				res, refused, err := inst.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if refused {
					t.Fatal("unhalted instance refused a query")
				}
				answered++
				if res.SpentPositive {
					spent++
				}
				if want := p.MaxPositives - spent; inst.Remaining() != want {
					t.Fatalf("remaining %d after %d spends, want %d", inst.Remaining(), spent, want)
				}
			}
			if !inst.Halted() {
				t.Fatalf("instance did not halt within 50 sure-spend queries (%d spent)", spent)
			}
			if spent != p.MaxPositives || inst.Remaining() != 0 {
				t.Fatalf("halted after %d spends with %d remaining, want %d/0", spent, inst.Remaining(), p.MaxPositives)
			}
			if inst.Answered() != answered {
				t.Fatalf("mechanism answered count %d, want %d", inst.Answered(), answered)
			}

			// Post-halt behavior: refuse outright, or answer with an
			// explicitly Exhausted, budget-free result.
			res, refused, err := inst.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !refused && (!res.Exhausted || res.SpentPositive) {
				t.Fatalf("post-halt answer neither refused nor exhausted-flagged: %+v", res)
			}
		})
	}
}

func TestConformanceValidateRejectsMalformed(t *testing.T) {
	for _, f := range Default.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			inst := mustNew(t, f, conformanceParams(f, 3))
			var bad []Query
			if f.Caps.NeedsHistogram {
				bad = []Query{
					{},                     // no buckets
					{Buckets: []int{-1}},   // out of range
					{Buckets: []int{99}},   // out of range
					{Buckets: []int{2, 2}}, // duplicate
				}
			} else {
				bad = []Query{
					{Value: 1, Threshold: math.NaN()},           // no threshold anywhere
					{Value: math.NaN(), Threshold: 0},           // non-finite value
					{Value: math.Inf(1), Threshold: 0},          // non-finite value
					{Value: 1, Threshold: math.Inf(-1)},         // non-finite threshold
					{Value: 1, Threshold: 0, Buckets: []int{0}}, // buckets on a threshold mechanism
				}
			}
			for i, q := range bad {
				if err := inst.Validate(q); err == nil {
					t.Errorf("malformed query %d accepted: %+v", i, q)
				}
			}
			if inst.Answered() != 0 {
				t.Fatalf("Validate touched mechanism state: answered=%d", inst.Answered())
			}
		})
	}
}

// TestConformanceRestoreKeepsHalted is the regression test for the
// historical restore asymmetry: Restore must advance BOTH the answered and
// the positive count on the mechanism side for every mechanism (the old
// session-layer restore forwarded only positives for the variants
// streams), and a fully-spent budget must come back halted.
func TestConformanceRestoreKeepsHalted(t *testing.T) {
	for _, f := range Default.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			p := conformanceParams(f, 5)
			inst := mustNew(t, f, p)
			const answered = 7
			if err := inst.Restore(answered, p.MaxPositives); err != nil {
				t.Fatal(err)
			}
			if !inst.Halted() || inst.Remaining() != 0 {
				t.Fatalf("restored-to-cutoff instance: halted=%v remaining=%d, want true/0", inst.Halted(), inst.Remaining())
			}
			if inst.Answered() != answered {
				t.Fatalf("restored answered %d on the mechanism side, want %d (the counters must move together)", inst.Answered(), answered)
			}
			if res, refused, err := inst.Answer(sureSpend(f)); err != nil {
				t.Fatal(err)
			} else if !refused && res.SpentPositive {
				t.Fatal("restored-halted instance spent budget")
			}

			// Partial restore keeps serving with the right residual budget.
			partial := mustNew(t, f, p)
			if err := partial.Restore(3, 2); err != nil {
				t.Fatal(err)
			}
			if partial.Halted() || partial.Remaining() != p.MaxPositives-2 || partial.Answered() != 3 {
				t.Fatalf("partial restore: halted=%v remaining=%d answered=%d", partial.Halted(), partial.Remaining(), partial.Answered())
			}

			// Inconsistent or over-budget counters must be refused.
			for _, c := range [][2]int{{1, 2}, {-1, -1}, {10, p.MaxPositives + 1}} {
				fresh := mustNew(t, f, p)
				if err := fresh.Restore(c[0], c[1]); err == nil {
					t.Errorf("Restore(%d, %d) accepted", c[0], c[1])
				}
				if fresh.Halted() || fresh.Remaining() != p.MaxPositives || fresh.Answered() != 0 {
					t.Errorf("refused Restore(%d, %d) changed the instance: halted=%v remaining=%d answered=%d", c[0], c[1], fresh.Halted(), fresh.Remaining(), fresh.Answered())
				}
			}

			// A used instance must refuse Restore: accepting it would
			// refresh the budget it has already spent.
			used := mustNew(t, f, p)
			if _, _, err := used.Answer(sureSpend(f)); err != nil {
				t.Fatal(err)
			}
			if err := used.Restore(0, 0); err == nil {
				t.Error("Restore(0, 0) on a used instance accepted")
			}
			if used.Remaining() != p.MaxPositives-1 {
				t.Errorf("remaining %d after one spend and a refused Restore, want %d", used.Remaining(), p.MaxPositives-1)
			}
		})
	}
}

// TestConformanceSeededReplayBitIdentity proves the crash-recovery
// contract at the mechanism layer: restore + state blob + stream
// fast-forward on a freshly re-seeded instance must continue the answer
// stream bit-identically to an uninterrupted run, for every mechanism.
func TestConformanceSeededReplayBitIdentity(t *testing.T) {
	const n, kill = 30, 11
	for _, f := range Default.Factories() {
		if !f.Caps.Seedable {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				p := conformanceParams(f, seed)
				p.MaxPositives = 12
				if f.Caps.NeedsHistogram {
					p.Threshold = ptr(20.0)
				}
				script := coinScript(f, n)

				answer := func(inst Instance, qs []Query) []Result {
					var out []Result
					for _, q := range qs {
						res, refused, err := inst.Answer(q)
						if err != nil {
							t.Fatal(err)
						}
						if refused {
							break
						}
						out = append(out, res)
					}
					return out
				}

				ref := mustNew(t, f, p)
				want := answer(ref, script)

				// Interrupted run: answer kill queries, capture the
				// journaled state, rebuild and continue.
				pre := mustNew(t, f, p)
				got := answer(pre, script[:kill])
				answered := pre.Answered()
				positives := 0
				for _, r := range got {
					if r.SpentPositive {
						positives++
					}
				}
				state := pre.MarshalState()
				main, aux := pre.Draws()

				rec := mustNew(t, f, p)
				if err := rec.Restore(answered, positives); err != nil {
					t.Fatal(err)
				}
				if len(state) > 0 {
					if err := rec.UnmarshalState(state); err != nil {
						t.Fatal(err)
					}
				}
				if err := rec.FastForward(main, aux); err != nil {
					t.Fatal(err)
				}
				got = append(got, answer(rec, script[kill:])...)

				if len(got) != len(want) {
					t.Fatalf("seed %d: recovered stream has %d answers, want %d", seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: recovered stream diverged at %d:\n got  %+v\n want %+v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestConformanceStateRoundTrip pins MarshalState/UnmarshalState: the blob
// captured from a progressed instance must install cleanly on a fresh twin
// and re-marshal to the identical bytes.
func TestConformanceStateRoundTrip(t *testing.T) {
	for _, f := range Default.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			p := conformanceParams(f, 9)
			inst := mustNew(t, f, p)
			// Progress until some budget is spent so evolving state exists.
			for i := 0; i < 3; i++ {
				if _, _, err := inst.Answer(sureSpend(f)); err != nil {
					t.Fatal(err)
				}
			}
			state := inst.MarshalState()

			twin := mustNew(t, f, p)
			if len(state) == 0 {
				// Nothing evolving to journal: the no-state contract is that
				// an empty blob installs as a no-op, and any other blob is
				// refused rather than silently dropped.
				if err := twin.UnmarshalState(nil); err != nil {
					t.Fatalf("empty state rejected: %v", err)
				}
				if twin.MarshalState() == nil {
					if err := twin.UnmarshalState(RhoStateBlob(1)); err == nil {
						t.Fatal("a mechanism with no evolving state accepted a ρ blob")
					}
				}
				return
			}
			if err := twin.UnmarshalState(state); err != nil {
				t.Fatal(err)
			}
			re := twin.MarshalState()
			if string(re) != string(state) {
				t.Fatalf("state round trip diverged:\n in  %x\n out %x", state, re)
			}
		})
	}
}

// TestConformanceFastForwardRefusesRewind: a stream can only move forward —
// rewinding would re-emit noise the analyst may already have observed.
func TestConformanceFastForwardRefusesRewind(t *testing.T) {
	for _, f := range Default.Factories() {
		if !f.Caps.Seedable {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			inst := mustNew(t, f, conformanceParams(f, 13))
			for i := 0; i < 2; i++ {
				if _, _, err := inst.Answer(sureSpend(f)); err != nil {
					t.Fatal(err)
				}
			}
			main, aux := inst.Draws()
			if main == 0 {
				t.Fatal("seeded instance reports no draws; stream positions are not being counted")
			}
			if err := inst.FastForward(main-1, aux); err == nil {
				t.Fatal("fast-forward to a past position accepted")
			}
		})
	}
}
