package server

// Seeded-session crash-reproducibility tests: the Seed contract promises a
// deterministic answer stream, and codec v2 makes that contract survive a
// crash. A seeded session killed mid-stream and recovered must produce a
// remaining answer stream BIT-IDENTICAL to an uninterrupted run — the
// re-seeded noise sources are fast-forwarded past every journaled draw, so
// the continuation uses exactly the draws the uninterrupted run would have,
// and never re-emits one the analyst may already have observed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// replayMechanisms is every servable mechanism, taken from the default
// registry so a newly registered mechanism is automatically covered by the
// crash-replay matrix (esvt rides in exactly this way — no session.go or
// hand-maintained list involved).
func replayMechanisms() []Mechanism {
	var out []Mechanism
	for _, name := range mech.Default.Names() {
		out = append(out, Mechanism(name))
	}
	return out
}

// replayScript builds a deterministic, mechanism-appropriate query script
// whose outcomes genuinely depend on the noise: thresholds sit on top of
// the query values, so each comparison is a coin flip decided by the
// Laplace draws.
func replayScript(mech Mechanism, n int) [][]QueryItem {
	script := make([][]QueryItem, n)
	for i := range script {
		if mech == MechPMW {
			script[i] = []QueryItem{{Buckets: []int{i % 6, (i + 3) % 6}}}
			continue
		}
		// Alternate tight and loose margins around the threshold.
		q := float64(i%5) - 2
		script[i] = []QueryItem{{Query: q, Threshold: ptr(0.0)}}
	}
	return script
}

// replayParams returns seeded create parameters for every mechanism, sized
// so the script sees positives (dpbook's ρ resampling, pmw's reweights)
// without halting too early.
func replayParams(mech Mechanism, seed uint64) CreateParams {
	p := CreateParams{
		Mechanism:    mech,
		Epsilon:      1,
		MaxPositives: 12,
		Threshold:    ptr(0.0),
		Seed:         seed,
	}
	if mech == MechSparse {
		p.AnswerFraction = 0.3 // exercise ε₃ numeric releases too
	}
	if mech == MechPMW {
		p.Epsilon = 2
		p.MaxPositives = 6
		p.Threshold = ptr(20.0)
		p.Histogram = []float64{100, 10, 250, 40, 80, 20}
	}
	return p
}

// runScript feeds the script to the session and returns the flattened
// result stream.
func runScript(t *testing.T, m *SessionManager, id string, script [][]QueryItem) []QueryResult {
	t.Helper()
	var out []QueryResult
	for _, batch := range script {
		res := mustQuery(t, m, id, batch)
		out = append(out, res.Results...)
	}
	return out
}

// resultsEqual compares two released answer streams bit-for-bit.
func resultsEqual(a, b []QueryResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeededSessionReplayBitIdentical(t *testing.T) {
	const n, kill = 40, 13
	for _, mech := range replayMechanisms() {
		for _, snapshotBeforeKill := range []bool{false, true} {
			name := string(mech)
			if snapshotBeforeKill {
				name += "/snapshotted"
			}
			t.Run(name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					script := replayScript(mech, n)
					params := replayParams(mech, seed)

					// Uninterrupted reference run: no store at all.
					ref := newTestManager(t, ManagerConfig{SnapshotInterval: -1, Store: store.NewMem()})
					refSess := mustCreate(t, ref, params)
					want := runScript(t, ref, refSess.ID(), script)

					// Interrupted run: same seed, killed after `kill`
					// batches, recovered, then continued.
					dir := t.TempDir()
					m1, st := openWALManager(t, dir)
					sess := mustCreate(t, m1, params)
					got := runScript(t, m1, sess.ID(), script[:kill])
					if snapshotBeforeKill {
						if err := m1.SnapshotNow(); err != nil {
							t.Fatal(err)
						}
						// A couple more batches so the journal tail after
						// the snapshot is non-empty when we crash.
						got = append(got, runScript(t, m1, sess.ID(), script[kill:kill+2])...)
					}
					m1.Close() // crash: no final snapshot, no store close
					_ = st

					m2, _ := openWALManager(t, dir)
					rest := script[kill:]
					if snapshotBeforeKill {
						rest = script[kill+2:]
					}
					got = append(got, runScript(t, m2, sess.ID(), rest)...)

					if !resultsEqual(got, want) {
						t.Fatalf("seed %d: killed-and-recovered stream diverged from the uninterrupted run:\n got  %+v\n want %+v",
							seed, got, want)
					}
				}
			})
		}
	}
}

// TestSeededJournalBytesPinned pins, for every mechanism, the progress
// events a seeded session journals across a crash and WAL recovery, and
// the answers it releases, to SHA-256 hashes recorded before the SVT
// family shared one mech adapter: a WAL written by an older build must
// recover into the same stream, so these bytes are a compatibility
// surface, not an implementation detail.
func TestSeededJournalBytesPinned(t *testing.T) {
	want := map[Mechanism]struct{ journal, answers string }{
		"dpbook":   {"b4bc68c4fc6ce911e4a64158866e8ec76d785e149fda3243385e7aca5c3528d5", "21f1f93bae8bfc2f83189c402cd36931d4357c19971b0e97f404379f29d9f9b6"},
		"esvt":     {"84642937ba0484dd13020842489543c16aef9927d560c475c457c950f42501e7", "e3b052c6c2a085636361e01f5cd115b715b5009f5ac73abf9b0296d94ce13e57"},
		"pmw":      {"2577816d13cf9da12b1c03ac84e1a873c6f7d3de49ce445452d652272aa55168", "7a96461e4440a59e90ba88b959ff65307a9416922aa1d9feb7d52ccd3fa18e3d"},
		"proposed": {"124608641dc1a55efe9e85b3174625a1d1e49a192effd9fb098eb49551b1de28", "f59872f10e63ad998f48626c4eed8db3c9e500d4bca9e716f249e4200b475f6e"},
		"sparse":   {"374c7bff619e6a0bc7005d73dc7b33feae50e6ec12a876c5511b2eda499cc2d6", "732e2b8f1518b85a0df0fb4330dc7ee8196e134cbfa17df6dcbc6463c96c2826"},
	}
	const n, kill = 40, 15
	for _, mech := range replayMechanisms() {
		t.Run(string(mech), func(t *testing.T) {
			w, ok := want[mech]
			if !ok {
				t.Fatalf("no pinned hashes for %s: record them from a run of this test", mech)
			}
			script := replayScript(mech, n)
			dir := t.TempDir()
			m1, _ := openWALManager(t, dir)
			sess := mustCreate(t, m1, replayParams(mech, 5))
			answers := runScript(t, m1, sess.ID(), script[:kill])
			m1.Close() // crash: no final snapshot
			m2, _ := openWALManager(t, dir)
			answers = append(answers, runScript(t, m2, sess.ID(), script[kill:])...)
			m2.Close()

			st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			events, err := st.Recover()
			if err != nil {
				t.Fatal(err)
			}
			var journal bytes.Buffer
			for _, ev := range events {
				if ev.Kind == evProgress {
					journal.Write(binary.AppendUvarint(nil, uint64(len(ev.Data))))
					journal.Write(ev.Data)
				}
			}
			var stream []byte
			for _, r := range answers {
				stream = append(stream, byte(boolBit(r.Above)|boolBit(r.Numeric)<<1|boolBit(r.FromSynthetic)<<2|boolBit(r.Exhausted)<<3))
				stream = binary.LittleEndian.AppendUint64(stream, math.Float64bits(r.Value))
			}
			jsum, asum := sha256.Sum256(journal.Bytes()), sha256.Sum256(stream)
			if got := hex.EncodeToString(jsum[:]); got != w.journal {
				t.Errorf("progress journal hash %s, want %s", got, w.journal)
			}
			if got := hex.EncodeToString(asum[:]); got != w.answers {
				t.Errorf("answer stream hash %s, want %s", got, w.answers)
			}
		})
	}
}

// TestSeededSessionNeverReplaysPreCrashNoise is the privacy side of the
// same mechanism: the draws consumed before the kill must NOT reappear
// after recovery. With replay-from-0 the first post-restart comparison
// would reuse the first pre-crash draw; with fast-forward the post-restart
// stream picks up where the pre-crash stream stopped.
func TestSeededSessionNeverReplaysPreCrashNoise(t *testing.T) {
	params := replayParams(MechSparse, 99)
	script := replayScript(MechSparse, 24)

	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	sess := mustCreate(t, m1, params)
	pre := runScript(t, m1, sess.ID(), script[:12])
	m1.Close() // crash

	m2, _ := openWALManager(t, dir)
	replayed := runScript(t, m2, sess.ID(), script[:12])

	// Re-running the SAME queries must not reproduce the pre-crash answers:
	// that would mean the noise stream restarted at position 0. (Each
	// comparison is a near-fair coin, so 12 identical outcomes by chance is
	// ~2^-12; the numeric ε₃ releases make a coincidental match impossible.)
	if resultsEqual(pre, replayed) {
		t.Fatal("recovered session replayed its pre-crash noise stream; the realized threshold is exposed")
	}
}

// TestCrashBetweenRotationAndBaselineWrite kills the server in the
// two-phase snapshot's vulnerable window: the journal segment has rotated
// but the baseline was never written. Recovery must fall back to the
// previous generation and replay both segments, losing nothing.
func TestCrashBetweenRotationAndBaselineWrite(t *testing.T) {
	dir := t.TempDir()
	m1, st := openWALManager(t, dir)
	s := mustCreate(t, m1, sparseParams())
	mustQuery(t, m1, s.ID(), surePositive())
	if err := m1.SnapshotNow(); err != nil { // generation 2, committed
		t.Fatal(err)
	}
	mustQuery(t, m1, s.ID(), surePositive())

	// Start a snapshot and crash before its baseline write: rotate the
	// segment exactly as SnapshotNow's locked phase would, then abandon it.
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Traffic keeps flowing into the rotated segment.
	mustQuery(t, m1, s.ID(), surePositive())
	mustQuery(t, m1, s.ID(), sureNegative())
	want := durableStatus(mustStatus(t, m1, s.ID()))
	m1.Close() // crash: snap for the rotated generation never written

	m2, _ := openWALManager(t, dir)
	got := durableStatus(mustStatus(t, m2, s.ID()))
	if got != want {
		t.Fatalf("recovery across a torn snapshot generation lost events:\n got  %+v\n want %+v", got, want)
	}
	if got.Answered != 4 || got.Positives != 3 {
		t.Fatalf("counters %+v, want answered=4 positives=3", got)
	}
}

// TestSnapshotFailureSurfacedInStats drives SnapshotNow into failure and
// requires the failure counter and last error to reach Stats (and therefore
// GET /v1/stats).
func TestSnapshotFailureSurfacedInStats(t *testing.T) {
	dir := t.TempDir()
	m, st := openWALManager(t, dir)
	mustCreate(t, m, sparseParams())
	if err := st.Close(); err != nil { // snapshots now fail with ErrClosed
		t.Fatal(err)
	}
	if err := m.SnapshotNow(); err == nil {
		t.Fatal("snapshot against a closed store succeeded")
	}
	stats := m.Stats()
	if stats.SnapshotFailures == 0 || stats.LastSnapshotError == "" {
		t.Fatalf("stats %+v, want snapshot failure counter and last error surfaced", stats)
	}
}

// pmwSynthetic reaches through the mechanism seam for the mediator's
// public synthetic histogram; pmwUpdates for its real-data access count.
func pmwSynthetic(t *testing.T, s *Session) []float64 {
	t.Helper()
	m, ok := s.inst.(interface{ Synthetic() []float64 })
	if !ok {
		t.Fatalf("session mechanism %T exposes no synthetic histogram", s.inst)
	}
	return m.Synthetic()
}

func pmwUpdates(t *testing.T, s *Session) int {
	t.Helper()
	m, ok := s.inst.(interface{ Updates() int })
	if !ok {
		t.Fatalf("session mechanism %T exposes no update count", s.inst)
	}
	return m.Updates()
}

// TestPMWRecoveryKeepsLearnedSynthetic requires a recovered pmw session to
// resume from its learned synthetic histogram rather than the uniform
// prior, whether the state came from a snapshot baseline or only from
// journaled progress events.
func TestPMWRecoveryKeepsLearnedSynthetic(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		name := "journal-only"
		if snapshot {
			name = "snapshotted"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m1, _ := openWALManager(t, dir)
			s := mustCreate(t, m1, pmwParams())
			// Drive updates so the synthetic histogram learns.
			for i := 0; i < 8; i++ {
				mustQuery(t, m1, s.ID(), []QueryItem{{Buckets: []int{4}}})
			}
			if pmwUpdates(t, s) == 0 {
				t.Fatal("setup: no pmw updates happened; the test would be vacuous")
			}
			learned := pmwSynthetic(t, s)
			if snapshot {
				if err := m1.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			m1.Close() // crash

			m2, _ := openWALManager(t, dir)
			rec, ok := m2.Get(s.ID())
			if !ok {
				t.Fatal("pmw session lost across restart")
			}
			got := pmwSynthetic(t, rec)
			for i := range learned {
				if got[i] != learned[i] {
					t.Fatalf("synthetic[%d] = %v after recovery, want learned value %v (uniform restart?)", i, got[i], learned[i])
				}
			}
		})
	}
}
