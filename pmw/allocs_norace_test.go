//go:build !race

package pmw

import "testing"

// TestPMWCheckAllocs pins the engine's bucket check, and an Answer that
// runs it, at zero allocations for a 32-bucket query. Race builds are
// left out, like the other allocation pins.
func TestPMWCheckAllocs(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxUpdates = 1 << 20 // the gate stays live for every run
	cfg.Histogram = make([]float64, 4096)
	for i := range cfg.Histogram {
		cfg.Histogram[i] = 10
	}
	e := mustNew(t, cfg)
	query := make([]int, 32)
	for i := range query {
		query[i] = i * 127
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := e.CheckBuckets(query); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("CheckBuckets allocates %.2f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := e.Answer(query); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Answer allocates %.2f/op, want 0", got)
	}
}
