package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// ptr returns a pointer to v, for the optional threshold fields.
func ptr(v float64) *float64 { return &v }

// newTestManager builds a manager whose janitor effectively never fires,
// so tests control expiry via the fake clock and explicit Sweep calls.
// With SVT_TEST_STORE=wal in the environment the whole suite runs against
// a real write-ahead-log store in a temp dir, so CI exercises every code
// path — locking, journaling, snapshots — under the durable backend too.
func newTestManager(t *testing.T, cfg ManagerConfig) *SessionManager {
	t.Helper()
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = time.Hour
	}
	if cfg.Store == nil && os.Getenv("SVT_TEST_STORE") == "wal" {
		st, err := store.NewWAL(store.WALConfig{Dir: t.TempDir(), Sync: store.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		cfg.Store = st
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// sparseParams is a session that answers many queries without halting.
func sparseParams() CreateParams {
	return CreateParams{
		Mechanism:    MechSparse,
		Epsilon:      1,
		MaxPositives: 100,
		Threshold:    ptr(0.5),
		Seed:         7,
	}
}

func pmwParams() CreateParams {
	return CreateParams{
		Mechanism:    MechPMW,
		Epsilon:      2,
		MaxPositives: 3,
		Threshold:    ptr(50),
		Histogram:    []float64{100, 100, 100, 100, 500, 100},
		Seed:         1,
	}
}

func TestCreateAllMechanismsBudgets(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	cases := []struct {
		name   string
		params CreateParams
	}{
		{"sparse", CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 10, Seed: 3}},
		{"sparse-numeric", CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 10, AnswerFraction: 0.25, Seed: 3}},
		{"esvt", CreateParams{Mechanism: mechESVT, Epsilon: 1, MaxPositives: 10, Seed: 3}},
		{"proposed", CreateParams{Mechanism: MechProposed, Epsilon: 1, MaxPositives: 10, Seed: 3}},
		{"dpbook", CreateParams{Mechanism: MechDPBook, Epsilon: 1, MaxPositives: 10, Seed: 3}},
		{"pmw", pmwParams()},
	}
	// A newly registered mechanism fails here until it gets a row.
	covered := make(map[Mechanism]bool)
	for _, tc := range cases {
		covered[tc.params.Mechanism] = true
	}
	for _, name := range mech.Default.Names() {
		if !covered[Mechanism(name)] {
			t.Errorf("registered mechanism %q has no budget row", name)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := m.Create(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			b := s.Budget()
			sum := b.Eps1 + b.Eps2 + b.Eps3
			if math.Abs(sum-tc.params.Epsilon) > 1e-9 {
				t.Errorf("eps1+eps2+eps3 = %v, want %v", sum, tc.params.Epsilon)
			}
			if math.Abs(b.Total-tc.params.Epsilon) > 1e-9 {
				t.Errorf("total = %v, want %v", b.Total, tc.params.Epsilon)
			}
			if !(b.Eps1 > 0) || !(b.Eps2 > 0) {
				t.Errorf("eps1 = %v, eps2 = %v: both must be positive", b.Eps1, b.Eps2)
			}
			if tc.name == "sparse-numeric" && math.Abs(b.Eps3-0.25) > 1e-9 {
				t.Errorf("eps3 = %v, want 0.25", b.Eps3)
			}
			if tc.name == "proposed" || tc.name == "dpbook" {
				if b.Eps1 != 0.5 || b.Eps2 != 0.5 || b.Eps3 != 0 {
					t.Errorf("split (%v, %v, %v), want (0.5, 0.5, 0)", b.Eps1, b.Eps2, b.Eps3)
				}
			}
			if tc.name == "pmw" && !(b.Eps3 > 0) {
				t.Errorf("pmw eps3 = %v, want positive update budget", b.Eps3)
			}
		})
	}
}

func TestCreateRejectsBadParams(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	bad := []CreateParams{
		{},
		{Mechanism: "gptt", Epsilon: 1, MaxPositives: 1}, // non-private variants are not servable
		{Mechanism: MechSparse, Epsilon: 0, MaxPositives: 1},
		{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 0},
		{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1, Threshold: ptr(math.Inf(1))},
		{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1, Histogram: []float64{1, 2}},
		{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1, TTLSeconds: -1},
		{Mechanism: MechPMW, Epsilon: 1, MaxPositives: 1, Threshold: ptr(50)},         // no histogram
		{Mechanism: MechPMW, Epsilon: 1, MaxPositives: 1, Histogram: []float64{1, 2}}, // no threshold
	}
	for i, p := range bad {
		if _, err := m.Create(p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
	if n := m.Len(); n != 0 {
		t.Errorf("%d sessions live after rejected creates", n)
	}
}

func TestQueryFlowAndHalt(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	p := sparseParams()
	p.MaxPositives = 2
	s, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	// Far-above and far-below queries: the Laplace noise (scale ~ tens)
	// cannot bridge 1e12.
	th := 0.0
	res, err := m.Query(s.ID(), []QueryItem{
		{Query: -1e12, Threshold: &th},
		{Query: 1e12, Threshold: &th},
		{Query: 1e12, Threshold: &th},
		{Query: 1e12, Threshold: &th}, // never reached: halt after 2 positives
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3 (2 positives then halt)", len(res.Results))
	}
	if res.Results[0].Above || !res.Results[1].Above || !res.Results[2].Above {
		t.Errorf("outcomes %+v, want ⊥⊤⊤", res.Results)
	}
	if !res.Halted || res.Remaining != 0 {
		t.Errorf("halted=%v remaining=%d, want true/0", res.Halted, res.Remaining)
	}
	st := s.Status()
	if st.Answered != 3 || st.Positives != 2 || st.Remaining != 0 || !st.Halted {
		t.Errorf("status %+v", st)
	}
	// A further query returns an empty, halted batch.
	res, err = m.Query(s.ID(), []QueryItem{{Query: 1e12, Threshold: &th}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 || !res.Halted {
		t.Errorf("post-halt batch %+v", res)
	}
}

func TestQueryDefaultThreshold(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create(sparseParams()) // default threshold 0.5
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(s.ID(), []QueryItem{{Query: 1e12}}); err != nil {
		t.Fatalf("default threshold not applied: %v", err)
	}
	// A session created without a threshold must reject bare queries.
	p := sparseParams()
	p.Threshold = nil
	s2, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(s2.ID(), []QueryItem{{Query: 1}}); err == nil {
		t.Fatal("query without any threshold accepted")
	}
	th := 3.0
	if _, err := m.Query(s2.ID(), []QueryItem{{Query: 1, Threshold: &th}}); err != nil {
		t.Fatal(err)
	}
	// An explicit default of 0 is a real threshold, not "absent".
	p = sparseParams()
	p.Threshold = ptr(0)
	s3, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(s3.ID(), []QueryItem{{Query: 1e12}}); err != nil {
		t.Fatalf("zero default threshold rejected: %v", err)
	}
}

// TestHugeTTLClampsToMax guards against float→Duration overflow: an
// absurd TTL must clamp to MaxTTL, not wrap negative and expire the
// session at birth.
func TestHugeTTLClampsToMax(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxTTL: time.Hour})
	for _, ttl := range []float64{1e10, math.Inf(1)} {
		p := sparseParams()
		p.TTLSeconds = ttl
		s, err := m.Create(p)
		if err != nil {
			t.Fatalf("ttl %v: %v", ttl, err)
		}
		if s.ttl != time.Hour {
			t.Errorf("ttl %v: resolved to %v, want the 1h cap", ttl, s.ttl)
		}
		if _, ok := m.Get(s.ID()); !ok {
			t.Errorf("ttl %v: session expired at birth", ttl)
		}
	}
	p := sparseParams()
	p.TTLSeconds = math.NaN()
	if _, err := m.Create(p); err == nil {
		t.Error("NaN ttl accepted")
	}
}

// TestBatchValidatesBeforeAnswering pins batch atomicity: a malformed
// item anywhere in the batch must fail the whole batch before any
// budget is spent on the items preceding it.
func TestBatchValidatesBeforeAnswering(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create(sparseParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(s.ID(), []QueryItem{
		{Query: 1e12},
		{Query: math.NaN()}, // invalid: must poison the whole batch
	}); err == nil {
		t.Fatal("batch with NaN query accepted")
	}
	if st := s.Status(); st.Answered != 0 || st.Positives != 0 {
		t.Errorf("budget spent on a rejected batch: %+v", st)
	}
	// pmw: an out-of-range bucket in item 2 must not spend item 1's update.
	pm, err := m.Create(pmwParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(pm.ID(), []QueryItem{
		{Buckets: []int{4}},  // would trigger an update if answered
		{Buckets: []int{99}}, // out of range
	}); err == nil {
		t.Fatal("batch with out-of-range bucket accepted")
	}
	if st := pm.Status(); st.Answered != 0 || st.Positives != 0 || st.Remaining != 3 {
		t.Errorf("pmw budget spent on a rejected batch: %+v", st)
	}
}

func TestPMWSession(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create(pmwParams())
	if err != nil {
		t.Fatal(err)
	}
	// Whole-domain query: synthetic equals truth, free.
	res, err := m.Query(s.ID(), []QueryItem{{Buckets: []int{0, 1, 2, 3, 4, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Results[0]
	if !r.Numeric || !r.FromSynthetic || math.Abs(r.Value-1000) > 1e-6 {
		t.Fatalf("whole-domain result %+v", r)
	}
	// Skewed bucket: must spend an update.
	res, err = m.Query(s.ID(), []QueryItem{{Buckets: []int{4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].FromSynthetic {
		t.Fatal("hard query answered from synthetic")
	}
	st := s.Status()
	if st.Positives != 1 || st.Remaining != 2 {
		t.Errorf("positives=%d remaining=%d, want 1/2", st.Positives, st.Remaining)
	}
	// SVT-shaped queries are invalid on a pmw session and vice versa.
	if _, err := m.Query(s.ID(), []QueryItem{{Query: 1}}); err == nil {
		t.Error("bucketless query accepted by pmw session")
	}
	sv, err := m.Create(sparseParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(sv.ID(), []QueryItem{{Buckets: []int{0}}}); err == nil {
		t.Error("bucket query accepted by sparse session")
	}
}

// TestPMWExhaustionFlag spends a pmw session's update budget and checks
// that both serving edges keep answering past it: unchecked synthetic
// estimates, free and flagged exhausted, never refusals, and no further
// positive charged.
func TestPMWExhaustionFlag(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create(pmwParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !s.Status().Halted; i++ {
		if i == 60 {
			t.Fatalf("update budget never spent: %+v", s.Status())
		}
		if _, err := m.Query(s.ID(), []QueryItem{{Buckets: []int{i % 6}}}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewAPI(m, APIConfig{}))
	defer srv.Close()
	qurl := srv.URL + "/v1/sessions/" + s.ID() + "/query"
	if code := doJSON(t, http.MethodPost, qurl, map[string]any{"buckets": []int{99}}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range bucket over HTTP: status %d, want 400", code)
	}
	var hres BatchResult
	if code := doJSON(t, http.MethodPost, qurl, map[string]any{"buckets": []int{4}}, &hres); code != http.StatusOK {
		t.Fatalf("HTTP query after exhaustion: status %d", code)
	}
	if r := hres.Results; len(r) != 1 || !r[0].Exhausted || !r[0].FromSynthetic || !r[0].Numeric || !hres.Halted || hres.Remaining != 0 {
		t.Errorf("HTTP answer after exhaustion %+v", hres)
	}
	c, err := client.Dial(startWireServer(t, NewWireServer(m, WireConfig{})), client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cres, err := c.Query(s.ID(), []client.QueryItem{{Buckets: []int{4}}, {Buckets: []int{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Results) != 2 || !cres.Halted || cres.Remaining != 0 {
		t.Errorf("SDK batch after exhaustion %+v", cres)
	}
	for _, r := range cres.Results {
		if !r.Exhausted || !r.FromSynthetic || !r.Numeric {
			t.Errorf("SDK answer after exhaustion %+v", r)
		}
	}
	if st, err := c.Status(s.ID()); err != nil || st.Positives != pmwParams().MaxPositives || st.Remaining != 0 || !st.Halted {
		t.Errorf("status after exhausted answers %+v (%v), want %d positives and none remaining", st, err, pmwParams().MaxPositives)
	}
}

func TestTTLExpiry(t *testing.T) {
	m := newTestManager(t, ManagerConfig{DefaultTTL: time.Minute})
	clock := time.Now()
	m.now = func() time.Time { return clock }

	s, err := m.Create(sparseParams())
	if err != nil {
		t.Fatal(err)
	}
	short, err := m.Create(CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 10, Threshold: ptr(1), TTLSeconds: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(s.ID()); !ok {
		t.Fatal("fresh session not found")
	}

	clock = clock.Add(6 * time.Second) // past short's TTL, inside s's
	if _, ok := m.Get(short.ID()); ok {
		t.Error("expired session still served")
	}
	if _, ok := m.Get(s.ID()); !ok {
		t.Error("live session lost")
	}
	if _, err := m.Query(short.ID(), []QueryItem{{Query: 1}}); err != ErrSessionNotFound {
		t.Errorf("query on expired session: %v, want ErrSessionNotFound", err)
	}

	// Access refreshes the deadline: 40s hops never let s lapse.
	for i := 0; i < 3; i++ {
		clock = clock.Add(40 * time.Second)
		if _, ok := m.Get(s.ID()); !ok {
			t.Fatalf("session expired despite refreshes (hop %d)", i)
		}
	}
	clock = clock.Add(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Errorf("sweep removed %d, want 1", n)
	}
	if m.Len() != 0 {
		t.Errorf("%d sessions live after sweep", m.Len())
	}
	st := m.Stats()
	if st.Expired != 2 { // one lazily on Get, one by Sweep
		t.Errorf("expired counter %d, want 2", st.Expired)
	}
}

func TestDeleteAndStats(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Shards: 4})
	ids := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		s, err := m.Create(sparseParams())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	if _, err := m.Create(pmwParams()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:3] {
		if !m.Delete(id) {
			t.Errorf("delete %s failed", id)
		}
	}
	if m.Delete(ids[0]) {
		t.Error("double delete succeeded")
	}
	if _, err := m.Query(ids[3], []QueryItem{{Query: 1}}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Live != 8 || st.Created != 11 || st.Deleted != 3 {
		t.Errorf("stats %+v", st)
	}
	if st.Queries[MechSparse] != 1 || st.TotalQueries != 1 {
		t.Errorf("query counters %+v", st.Queries)
	}
	if st.Shards != 4 || len(st.ShardLive) != 4 {
		t.Errorf("shard stats %+v", st)
	}
	liveSum := 0
	for _, n := range st.ShardLive {
		liveSum += n
	}
	if liveSum != st.Live {
		t.Errorf("shard live sum %d != live %d", liveSum, st.Live)
	}
}

func TestMaxSessions(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxSessions: 2})
	if _, err := m.Create(sparseParams()); err != nil {
		t.Fatal(err)
	}
	s2, err := m.Create(sparseParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(sparseParams()); err != ErrTooManySessions {
		t.Fatalf("over-cap create: %v, want ErrTooManySessions", err)
	}
	m.Delete(s2.ID())
	if _, err := m.Create(sparseParams()); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestConcurrentManager hammers every manager operation from many
// goroutines with a real (short) TTL and live janitor; run with -race.
func TestConcurrentManager(t *testing.T) {
	m := newTestManager(t, ManagerConfig{
		Shards:        8,
		DefaultTTL:    20 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})
	defer m.Close()

	// A pool of long-lived sessions everyone queries.
	var pool []string
	for i := 0; i < 16; i++ {
		p := sparseParams()
		p.TTLSeconds = 3600
		s, err := m.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, s.ID())
	}

	const workers = 12
	deadline := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	var queryErrs atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for time.Now().Before(deadline) {
				i++
				switch i % 5 {
				case 0:
					// Churn: create a session that expires almost at once.
					p := sparseParams()
					p.TTLSeconds = 0.001
					if s, err := m.Create(p); err == nil && i%10 == 0 {
						m.Delete(s.ID())
					}
				case 1:
					m.Stats()
				case 2:
					m.Sweep()
				default:
					id := pool[(w+i)%len(pool)]
					if _, err := m.Query(id, []QueryItem{{Query: float64(i % 3)}}); err != nil {
						queryErrs.Add(1)
					}
					if s, ok := m.Get(id); ok {
						s.Status()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := queryErrs.Load(); n != 0 {
		t.Errorf("%d pool queries failed", n)
	}
	st := m.Stats()
	if st.Created < 16 || st.Queries[MechSparse] == 0 {
		t.Errorf("implausible stats after hammer: %+v", st)
	}
	// The long-lived pool must have survived the churn and the janitor.
	for _, id := range pool {
		if _, ok := m.Get(id); !ok {
			t.Errorf("pool session %s lost", id)
		}
	}
}

// TestConcurrentSingleSession drives one session from many goroutines:
// the per-session mutex must keep the mechanism's counters coherent.
func TestConcurrentSingleSession(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	p := sparseParams()
	p.MaxPositives = 50
	p.Threshold = ptr(1)
	s, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = m.Query(s.ID(), []QueryItem{{Query: 1e12}}) // always ⊤
			}
		}()
	}
	wg.Wait()
	st := s.Status()
	if st.Positives != 50 || st.Remaining != 0 || !st.Halted {
		t.Errorf("status after concurrent positives: %+v", st)
	}
	if st.Answered != 50 {
		t.Errorf("answered %d, want exactly 50 (halt refuses the rest)", st.Answered)
	}
}
