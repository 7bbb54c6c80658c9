package mech

import (
	"errors"
	"fmt"

	"github.com/dpgo/svt/pmw"
)

func init() {
	Default.MustRegister(Factory{
		Name:    "pmw",
		Summary: "Private Multiplicative Weights mediator with the corrected SVT as its gate: free synthetic answers, budgeted updates",
		Caps: Capabilities{
			NumericReleases: true,
			Seedable:        true,
			NeedsHistogram:  true,
		},
		New: newPMW,
	})
}

// pmwInstance adapts pmw.Engine to the Instance seam. The primary noise
// stream is the Laplace update-release source, the auxiliary stream the SVT
// gate's source — matching the order the journal has recorded since codec
// v2.
type pmwInstance struct {
	e       *pmw.Engine
	buckets int
}

func newPMW(p Params) (Instance, error) {
	if p.Threshold == nil {
		return nil, fmt.Errorf("mech: pmw sessions require a threshold")
	}
	if p.Monotonic {
		return nil, fmt.Errorf("mech: pmw does not support the monotonic refinement")
	}
	if isSet(p.AnswerFraction) {
		return nil, fmt.Errorf("mech: pmw does not support answerFraction (every answer is numeric; updateFraction tunes the split)")
	}
	e, err := pmw.New(pmw.Config{
		Histogram:      p.Histogram,
		Epsilon:        p.Epsilon,
		MaxUpdates:     p.MaxPositives,
		Threshold:      *p.Threshold,
		UpdateFraction: p.UpdateFraction,
		LearningRate:   p.LearningRate,
		Seed:           p.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &pmwInstance{e: e, buckets: len(p.Histogram)}, nil
}

// Validate runs the engine's own bucket check, so the duplicate check
// exists once; only the error's prefix is mech's.
func (m *pmwInstance) Validate(q Query) error {
	if len(q.Buckets) == 0 {
		return fmt.Errorf("mech: pmw query needs buckets")
	}
	if err := m.e.CheckBuckets(q.Buckets); err != nil {
		var be *pmw.BucketError
		if !errors.As(err, &be) {
			return err
		}
		if be.Duplicate {
			return fmt.Errorf("mech: duplicate bucket %d in query", be.Bucket)
		}
		return fmt.Errorf("mech: bucket %d out of range [0,%d)", be.Bucket, be.Buckets)
	}
	return nil
}

// Answer never refuses: an exhausted pmw mediator keeps answering from the
// synthetic histogram with the Exhausted flag set.
func (m *pmwInstance) Answer(q Query) (Result, bool, error) {
	ans, err := m.e.Answer(q.Buckets)
	if err != nil && !errors.Is(err, pmw.ErrExhausted) {
		return Result{}, false, err
	}
	return Result{
		Numeric:       true,
		Value:         ans.Value,
		FromSynthetic: ans.FromSynthetic,
		Exhausted:     errors.Is(err, pmw.ErrExhausted),
		SpentPositive: !ans.FromSynthetic,
	}, false, nil
}

func (m *pmwInstance) Halted() bool   { return m.e.Exhausted() }
func (m *pmwInstance) Remaining() int { return m.e.UpdatesLeft() }
func (m *pmwInstance) Answered() int  { return m.e.Answered() }

func (m *pmwInstance) Budgets() (float64, float64, float64) { return m.e.Budgets() }

func (m *pmwInstance) Draws() (uint64, uint64) {
	gate, update := m.e.Draws()
	return update, gate
}

func (m *pmwInstance) FastForward(main, aux uint64) error {
	return m.e.FastForward(aux, main)
}

func (m *pmwInstance) Restore(answered, positives int) error {
	return m.e.Restore(answered, positives)
}

// MarshalState journals the learned synthetic histogram so a recovered
// mediator resumes from its learned distribution instead of the uniform
// prior. The histogram is derived entirely from already-released answers,
// so journaling it spends no privacy budget.
func (m *pmwInstance) MarshalState() []byte {
	return SyntheticStateBlob(m.e.Synthetic())
}

func (m *pmwInstance) UnmarshalState(data []byte) error {
	hist, err := syntheticFromState(data, m.buckets)
	if err != nil {
		return err
	}
	return m.e.RestoreSynthetic(hist)
}

// Synthetic exposes the mediator's public synthetic histogram for
// diagnostics and tests; it is already public information.
func (m *pmwInstance) Synthetic() []float64 { return m.e.Synthetic() }

// Updates reports how many real-data accesses have happened.
func (m *pmwInstance) Updates() int { return m.e.Updates() }
