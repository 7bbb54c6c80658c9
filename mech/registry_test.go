package mech

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestDefaultRegistryBuiltins(t *testing.T) {
	names := Default.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"sparse", "proposed", "dpbook", "pmw", "esvt"} {
		if _, ok := Default.Lookup(want); !ok {
			t.Errorf("built-in mechanism %q not registered (have %v)", want, names)
		}
	}
	// The broken historical variants must never be servable.
	for _, banned := range []string{"roth11", "leeclifton", "stoddard", "chen", "gptt"} {
		if _, ok := Default.Lookup(banned); ok {
			t.Errorf("non-private variant %q is registered", banned)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	ok := Factory{Name: "x", New: func(Params) (Instance, error) { return nil, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate registration accepted")
	}
	for _, bad := range []Factory{
		{Name: "", New: ok.New},
		{Name: "Upper", New: ok.New},
		{Name: "with space", New: ok.New},
		{Name: "slash/y", New: ok.New},
		{Name: "nonew"},
	} {
		if err := r.Register(bad); err == nil {
			t.Errorf("bad factory %+v accepted", bad)
		}
	}
}

func TestRegistryUnknownMechanism(t *testing.T) {
	_, err := Default.New("no-such-mechanism", Params{Epsilon: 1, MaxPositives: 1})
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if !strings.Contains(err.Error(), "no-such-mechanism") || !strings.Contains(err.Error(), "esvt") {
		t.Errorf("error %q should name the unknown mechanism and list the registered ones", err)
	}
}

// TestFactoriesValidateTheirOwnParams pins per-factory parameter
// validation: knobs a mechanism does not consume must be rejected, not
// silently ignored — an analyst who believes they got a refinement must
// not run without it.
func TestFactoriesValidateTheirOwnParams(t *testing.T) {
	th := 5.0
	hist := []float64{1, 2, 3}
	cases := []struct {
		name string
		p    Params
	}{
		{"sparse", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}},
		{"sparse", Params{Epsilon: 0, MaxPositives: 1}},
		{"proposed", Params{Epsilon: 1, MaxPositives: 1, Monotonic: true}},
		{"proposed", Params{Epsilon: 1, MaxPositives: 1, AnswerFraction: 0.2}},
		{"dpbook", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}},
		{"dpbook", Params{Epsilon: 1, MaxPositives: 0}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 1, AnswerFraction: 0.2}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 0}},
		{"pmw", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}}, // no threshold
		{"pmw", Params{Epsilon: 1, MaxPositives: 1, Threshold: &th}},  // no histogram
		{"pmw", Params{Epsilon: 1, MaxPositives: 1, Threshold: &th, Histogram: hist, Monotonic: true}},
	}
	for i, tc := range cases {
		if _, err := Default.New(tc.name, tc.p); err == nil {
			t.Errorf("case %d: %s accepted %+v", i, tc.name, tc.p)
		}
	}

	// The accepted shapes still work, including the esvt monotonic
	// refinement and sensitivity defaulting.
	good := []struct {
		name string
		p    Params
	}{
		{"esvt", Params{Epsilon: 1, MaxPositives: 3, Monotonic: true}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 3, Sensitivity: 2}},
		{"sparse", Params{Epsilon: 1, MaxPositives: 3, Monotonic: true, AnswerFraction: 0.25}},
	}
	for i, tc := range good {
		if _, err := Default.New(tc.name, tc.p); err != nil {
			t.Errorf("good case %d: %s rejected %+v: %v", i, tc.name, tc.p, err)
		}
	}
}

// TestSVTCreateValidation runs one table of invalid and optional create
// parameters against every SVT mechanism. The accept or reject decisions
// are the ones each mechanism made before the family shared one adapter;
// the messages are the one shape they now share.
func TestSVTCreateValidation(t *testing.T) {
	const (
		noNumeric   = "mech: %s does not support ε₃ numeric releases (use sparse)"
		noMonotonic = "mech: %s does not support the monotonic refinement (use sparse)"
	)
	nan, inf := math.NaN(), math.Inf(1)
	for _, row := range []struct {
		name string
		edit func(*Params)
		// msg is the error of every mechanism not in other, with %s its
		// name; other holds the mechanisms whose outcome differs, "" for
		// an accept.
		msg   string
		other map[string]string
	}{
		{"epsilon=0", func(p *Params) { p.Epsilon = 0 }, "mech: %s epsilon must be positive and finite, got 0", nil},
		{"epsilon=-1", func(p *Params) { p.Epsilon = -1 }, "mech: %s epsilon must be positive and finite, got -1", nil},
		{"epsilon=+Inf", func(p *Params) { p.Epsilon = inf }, "mech: %s epsilon must be positive and finite, got +Inf", nil},
		{"epsilon=NaN", func(p *Params) { p.Epsilon = nan }, "mech: %s epsilon must be positive and finite, got NaN", nil},
		{"sensitivity=-1", func(p *Params) { p.Sensitivity = -1 }, "mech: %s sensitivity must be positive and finite, got -1", nil},
		{"sensitivity=NaN", func(p *Params) { p.Sensitivity = nan }, "mech: %s sensitivity must be positive and finite, got NaN", nil},
		{"sensitivity=+Inf", func(p *Params) { p.Sensitivity = inf }, "mech: %s sensitivity must be positive and finite, got +Inf", nil},
		{"maxPositives=0", func(p *Params) { p.MaxPositives = 0 }, "mech: %s maxPositives must be positive, got 0", nil},
		{"maxPositives=-1", func(p *Params) { p.MaxPositives = -1 }, "mech: %s maxPositives must be positive, got -1", nil},
		{"answerFraction=-0.5", func(p *Params) { p.AnswerFraction = -0.5 }, noNumeric,
			map[string]string{"sparse": "mech: sparse answerFraction must be in [0, 1), got -0.5"}},
		{"answerFraction=1", func(p *Params) { p.AnswerFraction = 1 }, noNumeric,
			map[string]string{"sparse": "mech: sparse answerFraction must be in [0, 1), got 1"}},
		{"answerFraction=NaN", func(p *Params) { p.AnswerFraction = nan }, noNumeric,
			map[string]string{"sparse": "mech: sparse answerFraction must be in [0, 1), got NaN"}},
		{"answerFraction=0.3", func(p *Params) { p.AnswerFraction = 0.3 }, noNumeric, map[string]string{"sparse": ""}},
		{"monotonic", func(p *Params) { p.Monotonic = true }, noMonotonic, map[string]string{"sparse": "", "esvt": ""}},
		{"histogram", func(p *Params) { p.Histogram = []float64{1, 2} }, "mech: histogram is not valid for %s sessions", nil},
		{"learningRate", func(p *Params) { p.LearningRate = 0.5 }, "mech: updateFraction/learningRate are not valid for %s sessions", nil},
	} {
		for _, name := range []string{"sparse", "esvt", "proposed", "dpbook"} {
			p := Params{Epsilon: 1, MaxPositives: 4, Seed: 1}
			row.edit(&p)
			want, ok := row.other[name]
			if !ok {
				want = fmt.Sprintf(row.msg, name)
			}
			_, err := Default.New(name, p)
			switch {
			case want == "" && err != nil:
				t.Errorf("%s %s: rejected: %v", name, row.name, err)
			case want != "" && (err == nil || err.Error() != want):
				t.Errorf("%s %s: got %v, want %q", name, row.name, err, want)
			}
		}
	}
}
