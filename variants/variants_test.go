package variants

import (
	"testing"

	svt "github.com/dpgo/svt"
)

type ctor struct {
	name    string
	cutoff  bool
	numeric bool
	build   func(seed uint64) (Stream, error)
}

func ctors() []ctor {
	return []ctor{
		{"Proposed", true, false, func(seed uint64) (Stream, error) { return NewProposed(1, 1, 3, seed) }},
		{"DPBook", true, false, func(seed uint64) (Stream, error) { return NewDPBook(1, 1, 3, seed) }},
		{"Roth11", true, true, func(seed uint64) (Stream, error) { return NewRoth11(1, 1, 3, seed) }},
		{"LeeClifton", true, false, func(seed uint64) (Stream, error) { return NewLeeClifton(1, 1, 3, seed) }},
		{"Stoddard", false, false, func(seed uint64) (Stream, error) { return NewStoddard(1, 1, seed) }},
		{"Chen", false, false, func(seed uint64) (Stream, error) { return NewChen(1, 1, seed) }},
		{"GPTT", false, false, func(seed uint64) (Stream, error) { return NewGPTT(0.5, 0.5, 1, seed) }},
	}
}

func TestStreamsBehave(t *testing.T) {
	for _, c := range ctors() {
		s, err := c.build(13)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		positives, answered := 0, 0
		var lastPositive svt.Result
		for i := 0; i < 30; i++ {
			res, ok := s.Next(1e9, 0)
			if !ok {
				break
			}
			answered++
			if res.Above {
				positives++
				lastPositive = res
			}
		}
		if c.cutoff {
			if positives != 3 || answered != 3 {
				t.Errorf("%s: %d positives in %d answers, want 3/3", c.name, positives, answered)
			}
			if !s.Halted() {
				t.Errorf("%s: not halted", c.name)
			}
		} else {
			if answered != 30 || positives != 30 {
				t.Errorf("%s: %d positives in %d answers, want 30/30", c.name, positives, answered)
			}
			if s.Halted() {
				t.Errorf("%s: halted without cutoff", c.name)
			}
		}
		if lastPositive.Numeric != c.numeric {
			t.Errorf("%s: Numeric = %v, want %v", c.name, lastPositive.Numeric, c.numeric)
		}
	}
}

func TestStreamsDeterministicWithSeed(t *testing.T) {
	for _, c := range ctors() {
		run := func() []svt.Result {
			s, err := c.build(99)
			if err != nil {
				t.Fatal(err)
			}
			var out []svt.Result
			for _, q := range []float64{2, -1, 4, 0, -3, 6} {
				res, ok := s.Next(q, 1)
				if !ok {
					break
				}
				out = append(out, res)
			}
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", c.name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: diverged at %d", c.name, i)
			}
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := map[string]func() (Stream, error){
		"Proposed eps":   func() (Stream, error) { return NewProposed(0, 1, 3, 1) },
		"Proposed delta": func() (Stream, error) { return NewProposed(1, 0, 3, 1) },
		"Proposed c":     func() (Stream, error) { return NewProposed(1, 1, 0, 1) },
		"DPBook eps":     func() (Stream, error) { return NewDPBook(-1, 1, 3, 1) },
		"Roth11 c":       func() (Stream, error) { return NewRoth11(1, 1, -2, 1) },
		"LeeClifton eps": func() (Stream, error) { return NewLeeClifton(0, 1, 3, 1) },
		"Stoddard delta": func() (Stream, error) { return NewStoddard(1, 0, 1) },
		"Chen eps":       func() (Stream, error) { return NewChen(0, 1, 1) },
		"GPTT eps1":      func() (Stream, error) { return NewGPTT(0, 1, 1, 1) },
		"GPTT eps2":      func() (Stream, error) { return NewGPTT(1, 0, 1, 1) },
		"GPTT delta":     func() (Stream, error) { return NewGPTT(1, 1, 0, 1) },
	}
	for name, build := range cases {
		if _, err := build(); err == nil {
			t.Errorf("%s: invalid construction accepted", name)
		}
	}
}
