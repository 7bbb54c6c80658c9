package pmw

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func baseConfig() Config {
	return Config{
		Histogram:  []float64{100, 200, 50, 150, 400, 100},
		Epsilon:    5,
		MaxUpdates: 4,
		Threshold:  30,
		Seed:       17,
	}
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"short histogram", func(c *Config) { c.Histogram = []float64{1} }},
		{"negative count", func(c *Config) { c.Histogram = []float64{1, -2} }},
		{"NaN count", func(c *Config) { c.Histogram = []float64{1, math.NaN()} }},
		{"inf count", func(c *Config) { c.Histogram = []float64{1, math.Inf(1)} }},
		{"zero mass", func(c *Config) { c.Histogram = []float64{0, 0} }},
		{"zero epsilon", func(c *Config) { c.Epsilon = 0 }},
		{"inf epsilon", func(c *Config) { c.Epsilon = math.Inf(1) }},
		{"zero updates", func(c *Config) { c.MaxUpdates = 0 }},
		{"zero threshold", func(c *Config) { c.Threshold = 0 }},
		{"neg threshold", func(c *Config) { c.Threshold = -3 }},
		{"bad update fraction", func(c *Config) { c.UpdateFraction = 1.5 }},
		{"neg update fraction", func(c *Config) { c.UpdateFraction = -0.5 }},
		{"neg learning rate", func(c *Config) { c.LearningRate = -1 }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSyntheticStartsUniform(t *testing.T) {
	e := mustNew(t, baseConfig())
	synth := e.Synthetic()
	want := 1000.0 / 6
	for i, v := range synth {
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("synth[%d] = %v, want %v", i, v, want)
		}
	}
	// The copy must not alias internal state.
	synth[0] = -1
	if e.Synthetic()[0] == -1 {
		t.Error("Synthetic exposed internal state")
	}
}

func TestAnswerValidation(t *testing.T) {
	e := mustNew(t, baseConfig())
	if _, err := e.Answer(nil); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := e.Answer([]int{0, 6}); err == nil {
		t.Error("out-of-range bucket accepted")
	}
	if _, err := e.Answer([]int{-1}); err == nil {
		t.Error("negative bucket accepted")
	}
	if _, err := e.Answer([]int{1, 1}); err == nil {
		t.Error("duplicate bucket accepted")
	}
	if e.Answered() != 0 {
		t.Errorf("invalid queries counted: %d", e.Answered())
	}
}

// TestAnswerBucketErrors: Answer keeps its bucket messages, reports them
// as a *BucketError, and leaves the check's bitset clean after a refusal,
// so a query over every bucket passes right after.
func TestAnswerBucketErrors(t *testing.T) {
	e := mustNew(t, baseConfig())
	all := []int{0, 1, 2, 3, 4, 5}
	for _, c := range []struct {
		query []int
		msg   string
		dup   bool
	}{
		{[]int{0, 6}, "pmw: bucket 6 out of range [0,6)", false},
		{[]int{2, 3, -1}, "pmw: bucket -1 out of range [0,6)", false},
		{[]int{1, 3, 1}, "pmw: duplicate bucket 1 in query", true},
	} {
		_, err := e.Answer(c.query)
		var be *BucketError
		if !errors.As(err, &be) || err.Error() != c.msg || be.Duplicate != c.dup {
			t.Errorf("%v: error %v, want %q", c.query, err, c.msg)
		}
		if _, err := e.Answer(all); err != nil && !errors.Is(err, ErrExhausted) {
			t.Fatalf("query over every bucket after %v: %v", c.query, err)
		}
	}
}

// TestQuickCheckBucketsMatchesMap: the bitset check reports exactly what a
// map of seen buckets would, over histograms spanning several words.
func TestQuickCheckBucketsMatchesMap(t *testing.T) {
	cfg := baseConfig()
	cfg.Histogram = make([]float64, 130)
	for i := range cfg.Histogram {
		cfg.Histogram[i] = 1
	}
	e := mustNew(t, cfg)
	f := func(raw []int16) bool {
		query := make([]int, len(raw))
		for i, v := range raw {
			query[i] = int(v) % 140 // mostly in range, some past it or negative
		}
		var want error
		seen := make(map[int]bool)
		for _, b := range query {
			if b < 0 || b >= 130 {
				want = &BucketError{Bucket: b, Buckets: 130}
				break
			}
			if seen[b] {
				want = &BucketError{Bucket: b, Buckets: 130, Duplicate: true}
				break
			}
			seen[b] = true
		}
		got := e.CheckBuckets(query)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			return false
		}
		for _, w := range e.seen {
			if w != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEasyQueriesAreFree(t *testing.T) {
	// The whole-domain query always has synthetic estimate == truth
	// (both equal total mass), so it should essentially always be free.
	e := mustNew(t, baseConfig())
	for i := 0; i < 50; i++ {
		res, err := e.Answer([]int{0, 1, 2, 3, 4, 5})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !res.FromSynthetic {
			t.Fatalf("query %d consumed budget for a zero-error query", i)
		}
		if math.Abs(res.Value-1000) > 1e-9 {
			t.Fatalf("query %d value %v, want 1000", i, res.Value)
		}
	}
	if e.Updates() != 0 {
		t.Errorf("free queries triggered %d updates", e.Updates())
	}
	if e.Answered() != 50 {
		t.Errorf("Answered = %d", e.Answered())
	}
}

func TestHardQueryTriggersUpdateAndImproves(t *testing.T) {
	// Bucket 4 holds 400 of 1000; uniform prior says 166.7 — error 233
	// far above threshold 30, so the first ask must hit the data.
	e := mustNew(t, baseConfig())
	res, err := e.Answer([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromSynthetic {
		t.Fatal("hard query answered from synthetic")
	}
	// Noise scale is 1/(2.5/4) = 1.6; the answer must be near 400.
	if math.Abs(res.Value-400) > 30 {
		t.Fatalf("noisy answer %v far from 400", res.Value)
	}
	if e.Updates() != 1 || e.UpdatesLeft() != 3 {
		t.Fatalf("updates = %d, left = %d", e.Updates(), e.UpdatesLeft())
	}
	// The update must have moved the synthetic histogram toward the truth.
	if got := e.Synthetic()[4]; got <= 1000.0/6 {
		t.Errorf("synthetic[4] = %v did not increase", got)
	}
}

func TestRepeatedHardQueryConverges(t *testing.T) {
	// Asking the same under-estimated query repeatedly must keep nudging
	// the synthetic histogram until the estimate is within threshold and
	// answers become free.
	cfg := baseConfig()
	cfg.MaxUpdates = 30
	cfg.Epsilon = 30
	cfg.LearningRate = 0.2
	e := mustNew(t, cfg)
	free := false
	for i := 0; i < 60; i++ {
		res, err := e.Answer([]int{4})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.FromSynthetic {
			free = true
			break
		}
	}
	if !free {
		t.Fatal("synthetic histogram never converged to a free answer")
	}
	if math.Abs(e.Synthetic()[4]-400) > 100 {
		t.Errorf("synthetic[4] = %v, want near 400", e.Synthetic()[4])
	}
}

func TestMassConservation(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxUpdates = 10
	e := mustNew(t, cfg)
	queries := [][]int{{4}, {0, 1}, {2}, {3, 5}, {1, 4}}
	for i := 0; i < 20; i++ {
		if _, err := e.Answer(queries[i%len(queries)]); err != nil && !errors.Is(err, ErrExhausted) {
			t.Fatal(err)
		}
	}
	mass := 0.0
	for _, v := range e.Synthetic() {
		mass += v
	}
	if math.Abs(mass-1000) > 1e-6 {
		t.Fatalf("synthetic mass %v, want 1000", mass)
	}
}

func TestExhaustionReturnsErrExhausted(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxUpdates = 2
	cfg.Threshold = 1 // nearly every query is "hard"
	e := mustNew(t, cfg)
	sawExhausted := false
	for i := 0; i < 40; i++ {
		_, err := e.Answer([]int{i % 6})
		if errors.Is(err, ErrExhausted) {
			sawExhausted = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawExhausted {
		t.Fatal("engine never exhausted despite tiny budget and threshold")
	}
	if !e.Exhausted() {
		t.Error("Exhausted() false after ErrExhausted")
	}
	// Post-exhaustion answers still work, flagged.
	res, err := e.Answer([]int{0})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("post-exhaustion error = %v", err)
	}
	if !res.FromSynthetic {
		t.Error("post-exhaustion answer not synthetic")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []float64 {
		e := mustNew(t, baseConfig())
		var out []float64
		for i := 0; i < 15; i++ {
			res, err := e.Answer([]int{i % 6})
			if err != nil && !errors.Is(err, ErrExhausted) {
				t.Fatal(err)
			}
			out = append(out, res.Value)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at query %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: whatever the query sequence, the number of data accesses never
// exceeds MaxUpdates and synthetic mass is conserved.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(seed uint64, queriesRaw []uint8) bool {
		cfg := Config{
			Histogram:  []float64{10, 40, 5, 25, 20},
			Epsilon:    2,
			MaxUpdates: 3,
			Threshold:  5,
			Seed:       seed | 1,
		}
		e, err := New(cfg)
		if err != nil {
			return false
		}
		for _, q := range queriesRaw {
			_, err := e.Answer([]int{int(q) % 5})
			if err != nil && !errors.Is(err, ErrExhausted) {
				return false
			}
		}
		if e.Updates() > cfg.MaxUpdates {
			return false
		}
		mass := 0.0
		for _, v := range e.Synthetic() {
			mass += v
		}
		return math.Abs(mass-100) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFastForwardResumesBitIdentical(t *testing.T) {
	cfg := Config{
		Histogram:  []float64{120, 40, 260, 10, 75, 95},
		Epsilon:    2,
		MaxUpdates: 6,
		Threshold:  15,
		Seed:       77,
	}
	queries := make([][]int, 40)
	for i := range queries {
		queries[i] = []int{i % 6, (i + 2) % 6}
	}
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, q := range queries {
		res, err := full.Answer(q)
		if err != nil && err != ErrExhausted {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Interrupted twin: crash after 15 queries, "journal" the engine state,
	// rebuild from the seed, restore accounting + synthetic + positions.
	crashed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const kill = 15
	for _, q := range queries[:kill] {
		if _, err := crashed.Answer(q); err != nil && err != ErrExhausted {
			t.Fatal(err)
		}
	}
	gate, update := crashed.Draws()
	answered, updates := crashed.Answered(), crashed.Updates()
	synth := crashed.Synthetic()
	if updates == 0 {
		t.Fatal("setup: no updates before the crash; the test would be vacuous")
	}

	rebuilt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Restore(answered, updates); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RestoreSynthetic(synth); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.FastForward(gate, update); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[kill:] {
		res, err := rebuilt.Answer(q)
		if err != nil && err != ErrExhausted {
			t.Fatal(err)
		}
		if res != want[kill+i] {
			t.Fatalf("answer %d diverged after fast-forward: got %+v, want %+v", kill+i, res, want[kill+i])
		}
	}
}

func TestEngineFastForwardRejectsRewind(t *testing.T) {
	e, err := New(Config{Histogram: []float64{10, 20}, Epsilon: 1, MaxUpdates: 2, Threshold: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gate, update := e.Draws()
	if gate == 0 {
		t.Fatal("gate construction consumed no draws")
	}
	if err := e.FastForward(gate-1, update); err == nil {
		t.Fatal("rewinding the gate stream succeeded")
	}
}

func TestRestoreSyntheticValidates(t *testing.T) {
	e, err := New(Config{Histogram: []float64{10, 20, 30}, Epsilon: 1, MaxUpdates: 2, Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreSynthetic([]float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := e.RestoreSynthetic([]float64{-1, 30, 31}); err == nil {
		t.Fatal("negative bucket accepted")
	}
	if err := e.RestoreSynthetic([]float64{1, 1, 1}); err == nil {
		t.Fatal("mass mismatch accepted")
	}
	if err := e.RestoreSynthetic([]float64{30, 10, 20}); err != nil {
		t.Fatalf("valid synthetic rejected: %v", err)
	}
}
