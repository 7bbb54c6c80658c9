package core

import (
	"errors"
	"fmt"

	"github.com/dpgo/svt/internal/rng"
)

// run is the state every cutoff SVT of the ε-DP family shares — Alg1,
// Alg2, Alg7 and ESVT embed it — and the one place that decides how a run
// is counted, checked and resumed after a crash. The members differ in
// how they draw noise and what they release; the paper's "count =
// count + 1, Abort if count ≥ c" line is the same in each.
type run struct {
	src      *rng.Source
	c        int // positive-outcome cutoff
	count    int // positive outcomes released
	answered int // queries answered, positive or not
	halted   bool
}

// record books one answered query: the cutoff line of the pseudocode for a
// positive outcome, and the answered count for every outcome.
func (r *run) record(above bool) {
	r.answered++
	if above {
		r.count++
		if r.count >= r.c {
			r.halted = true
		}
	}
}

// Halted implements Algorithm.
func (r *run) Halted() bool { return r.halted }

// Remaining returns how many more positive outcomes the machine may emit.
func (r *run) Remaining() int { return r.c - r.count }

// Answered returns how many queries the machine has answered, restored ones
// included.
func (r *run) Answered() int { return r.answered }

// Restore fast-forwards an unused machine's accounting to counters
// journaled before a crash: answered queries, positives of them ⊤. The
// machine halts when positives reaches c, so spent budget is never
// refreshed by a restart. It refuses a used machine, one whose counters
// are not both zero, and counters no run could have produced.
//
// Restore moves only the accounting. The noise is a separate step: a
// seeded machine rebuilt from its seed re-derives the pre-crash ρ and
// FastForward resumes its stream exactly, but a machine built with fresh
// randomness draws a fresh ρ. Theorem 4's proof uses one ρ per run, so
// after k such restarts it covers (k+1)·ε₁ + ε₂ + ε₃, not ε.
func (r *run) Restore(answered, positives int) error {
	if r.answered != 0 || r.count != 0 {
		return errors.New("core: Restore requires an unused machine")
	}
	if positives < 0 || answered < positives {
		return fmt.Errorf("core: restored counters answered=%d positives=%d are inconsistent", answered, positives)
	}
	if positives > r.c {
		return fmt.Errorf("core: restored positives %d exceed the cutoff %d", positives, r.c)
	}
	r.answered, r.count = answered, positives
	r.halted = positives >= r.c
	return nil
}

// Draws returns the source's stream position: raw 64-bit draws consumed,
// including the ones drawing ρ at construction. Crash recovery journals it
// so a seeded machine can be fast-forwarded instead of replayed.
func (r *run) Draws() uint64 { return r.src.Draws() }

// FastForward advances the source to the absolute position draws, as
// previously reported by Draws, discarding the skipped values. For a
// machine rebuilt from its original seed the continuation is bit-identical
// to the uninterrupted run, and no pre-crash draw is re-emitted: replaying
// from position 0 would hand the analyst deterministic repeats of
// pre-crash comparisons, enough to binary-search the realized noisy
// threshold. It refuses to rewind.
func (r *run) FastForward(draws uint64) error {
	cur := r.src.Draws()
	if draws < cur {
		return fmt.Errorf("core: cannot fast-forward to draw %d, stream already at %d", draws, cur)
	}
	r.src.Skip(draws - cur)
	return nil
}
