package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

type countingInst struct{ flushes atomic.Int64 }

func (*countingInst) AppendSampled(time.Duration, uint64) {}
func (c *countingInst) FlushObserved(store.Flush)         { c.flushes.Add(1) }
func (*countingInst) RecoveryObserved(time.Duration, int) {}

func newWAL(t *testing.T, sync store.SyncPolicy) *store.WAL {
	t.Helper()
	w, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// optional reports which of the store's optional interfaces st has, in
// the order BatchAppender, Rotator, Healther, Instrumented.
func optional(st any) []bool {
	_, batch := st.(store.BatchAppender)
	_, rotate := st.(store.Rotator)
	_, health := st.(store.Healther)
	_, instrument := st.(store.Instrumented)
	return []bool{batch, rotate, health, instrument}
}

func TestWrappedWALExposesTheWALsInterfaces(t *testing.T) {
	wal := newWAL(t, store.SyncNone)
	var wrapped store.SessionStore = wrapStore(wal, newSeams(time.Now()))
	if got, want := optional(wrapped), optional(wal); !slices.Equal(got, want) {
		t.Errorf("the wrapper has %v of BatchAppender, Rotator, Healther, Instrumented; the WAL has %v", got, want)
	}
}

func TestWrappedWALForwardsEverySide(t *testing.T) {
	wal := newWAL(t, store.SyncAlways)
	sm := newSeams(time.Now())
	st := wrapStore(wal, sm)
	inst := &countingInst{}
	st.SetInstrumenter(inst)
	if err := st.Append(store.Event{Kind: 1, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]store.Event{{Kind: 1, ID: "a"}, {Kind: 1, ID: "b"}}); err != nil {
		t.Fatal(err)
	}
	rot, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rot.Commit([]store.Event{{Kind: 1, ID: "a"}}); err != nil {
		t.Fatal(err)
	}
	switch {
	case sm.appends.n.Load() != 2:
		t.Errorf("timed %d appends, want 2 (one Append, one AppendBatch)", sm.appends.n.Load())
	case sm.snaps.n.Load() != 1:
		t.Errorf("timed %d snapshots, want 1", sm.snaps.n.Load())
	case sm.syncs.n.Load() == 0 || inst.flushes.Load() == 0:
		t.Errorf("sync tee saw %d syncs, the manager's instrumenter %d flushes; want both > 0", sm.syncs.n.Load(), inst.flushes.Load())
	case st.Health().Appends != wal.Health().Appends:
		t.Errorf("Health not forwarded")
	}
}

func TestRegistryMirrorsDefault(t *testing.T) {
	sm := newSeams(time.Now())
	reg, err := sm.registry(mech.Default)
	if err != nil {
		t.Fatal(err)
	}
	want, got := mech.Default.Factories(), reg.Factories()
	if len(got) != len(want) {
		t.Fatalf("%d factories, want %d", len(got), len(want))
	}
	for i, f := range got {
		if f.Name != want[i].Name || f.Summary != want[i].Summary || f.Caps != want[i].Caps {
			t.Errorf("factory %d is %q %+v, want %q %+v", i, f.Name, f.Caps, want[i].Name, want[i].Caps)
		}
	}
	inst, err := reg.New("sparse", mech.Params{Epsilon: 1, MaxPositives: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := inst.Answer(mech.Query{Value: 1, Threshold: 1e12}); err != nil {
		t.Fatal(err)
	}
	if sm.newInst.n.Load() != 1 || sm.answer["sparse"].n.Load() != 1 {
		t.Errorf("timed %d News and %d sparse Answers, want 1 and 1", sm.newInst.n.Load(), sm.answer["sparse"].n.Load())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false}} {
		counts := make([]int64, histBuckets)
		for i := 0; i < tc.n; i++ {
			counts[bucketOf(int64(i))]++
		}
		if _, err := histPercentile(counts, tc.p); (err == nil) != tc.ok || (err != nil && !errors.Is(err, errThinTail)) {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", tc.p*100, tc.n, err, tc.ok)
		}
	}
}

func TestHistogramBucketsBracketTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 123456, 987654321} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi || (v >= 16 && hi-lo > float64(v)/16) {
			t.Errorf("value %d lands in bucket [%v, %v)", v, lo, hi)
		}
	}
}

// inputs draws every kind of input a caller or set-up makes.
func inputs(seed int64) []string {
	var out []string
	for _, stream := range []uint64{0, 1, 63, setupStream} {
		g := newGen(seed, stream)
		c := &caller{g: g}
		for i := 0; i < 200; i++ {
			out = append(out, fmt.Sprint(g.hot(), g.index(5), g.uniform(0, 1000), g.normal(84, 4), c.deal(64), g.buckets(nil, 32, 4096)))
		}
		out = append(out, fmt.Sprint(g.histogram(64)), g.sessionID())
	}
	return out
}

func TestInputsComeOnlyFromTheSeed(t *testing.T) {
	if !slices.Equal(inputs(7), inputs(7)) {
		t.Error("the same seed drew different inputs")
	}
	if slices.Equal(inputs(7), inputs(8)) {
		t.Error("different seeds drew the same inputs")
	}
}

func TestSettleAndStatusCatchAccountingErrors(t *testing.T) {
	p := &phase{}
	s := &session{id: "s", mech: "sparse", cutoff: 4, epsilon: 1}
	p.settle(s, 1, &client.BatchResult{Results: []client.QueryResult{{Above: true}}, Remaining: 3})
	if len(p.violations) != 0 {
		t.Fatalf("a correct answer was flagged: %v", p.violations)
	}
	p.settle(s, 2, &client.BatchResult{Results: []client.QueryResult{{}}, Remaining: 3})
	if len(p.violations) != 1 {
		t.Errorf("a short batch from a live session was not flagged: %v", p.violations)
	}
	ok := &client.SessionStatus{Answered: 2, Positives: 1, Remaining: 3, Budget: client.Budget{Total: 1}}
	if err := s.checkStatus(ok); err != nil {
		t.Errorf("matching status flagged: %v", err)
	}
	bad := *ok
	bad.Answered = 3
	if s.checkStatus(&bad) == nil {
		t.Error("an answered count above the acked one was not flagged")
	}
}

// TestWorkloadsRunClean runs every workload end to end for a second, both
// ways, and expects no violation.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stack")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := &config{w: w, seed: 1, run: time.Second, dir: t.TempDir()}
			if err := os.MkdirAll(filepath.Join(cfg.dir, "wal"), 0o755); err != nil {
				t.Fatal(err)
			}
			for _, run := range []func(*config) (*result, error){runEndToEnd, runTraced} {
				res, err := run(cfg)
				if errors.Is(err, errThinTail) {
					t.Skipf("a one-second run is too short here: %v", err) // e.g. under -race
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d violations=%v", res.Correct, res.Attempted, res.Failed, res.violations)
				}
			}
		})
	}
}
