//go:build !race

package mech

import "testing"

// TestPMWCheckAllocs pins pmw's served path at zero allocations for a
// 32-bucket query: Validate and Answer share the engine's bucket bitset
// instead of building a map each. Race builds are left out, like the
// other allocation pins.
func TestPMWCheckAllocs(t *testing.T) {
	hist := make([]float64, 4096)
	for i := range hist {
		hist[i] = 10
	}
	inst, err := Default.New("pmw", Params{Epsilon: 1, MaxPositives: 1 << 20, Threshold: ptr(50), Histogram: hist, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Buckets: make([]int, 32)}
	for i := range q.Buckets {
		q.Buckets[i] = i * 127
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := inst.Validate(q); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("pmw Validate allocates %.2f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, _, err := inst.Answer(q); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("pmw Answer allocates %.2f/op, want 0", got)
	}
}

// TestSVTAnswerAllocs pins the SVT family's served path at zero
// allocations: Validate and Answer go straight to the core machine.
func TestSVTAnswerAllocs(t *testing.T) {
	for _, name := range []string{"sparse", "esvt", "proposed", "dpbook"} {
		inst, err := Default.New(name, Params{Epsilon: 1, MaxPositives: 1 << 30, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Value: 0.5, Threshold: 0}
		if got := testing.AllocsPerRun(200, func() {
			if err := inst.Validate(q); err != nil {
				t.Fatal(err)
			}
			if _, _, err := inst.Answer(q); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s Validate+Answer allocates %.2f/op, want 0", name, got)
		}
	}
}
