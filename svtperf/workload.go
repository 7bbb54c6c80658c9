package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/store"
)

// edge is the serving edge a workload's callers use.
type edge int

const (
	edgeWire edge = iota
	edgeHTTP
)

// workload is one traffic mix. Every workload is a closed loop: each
// caller waits for its reply before choosing its next request, which is
// the paper's interactive setting.
type workload struct {
	name           string
	edge           edge
	sync           store.SyncPolicy
	snapshot       time.Duration
	conns          int
	callersPerConn int
	// durable workloads restart the server on the same directory after
	// the run and check that recovery kept every acked answer.
	durable bool
	// setup creates the standing sessions and warms the connections.
	setup func(p *phase) error
	// step runs one unit of a caller's traffic: one request, or one whole
	// session lifecycle.
	step func(p *phase, c *caller) error
}

// workloads are the benchmark's traffic mixes; README.md gives the reasons
// for each and the layers each one exercises or bypasses.
var workloads = []*workload{
	{
		// One query per call on 1024 Zipf-skewed sessions, pipelined by
		// 64 SDK callers: the per-request cost of every layer.
		name:           "interactive-wire",
		edge:           edgeWire,
		sync:           store.SyncInterval,
		snapshot:       server.DefaultSnapshotInterval,
		conns:          2,
		callersPerConn: 32,
		setup:          setupInteractive,
		step:           stepInteractive,
	},
	{
		// 64-query JSON batches to all five mechanisms over two keep-alive
		// HTTP connections: codec and mechanism cost, with per-request
		// costs paid once per 64 queries.
		name:           "batch-http",
		edge:           edgeHTTP,
		sync:           store.SyncInterval,
		snapshot:       server.DefaultSnapshotInterval,
		conns:          2,
		callersPerConn: 1,
		setup:          setupBatch,
		step:           stepBatch,
	},
	{
		// Whole session lifecycles under fsync=always with 2 s snapshots:
		// the journal, group commit, shard maps and compaction.
		name:           "churn-durable",
		edge:           edgeWire,
		sync:           store.SyncAlways,
		snapshot:       2 * time.Second,
		conns:          2,
		callersPerConn: 16,
		durable:        true,
		setup:          setupChurn,
		step:           stepChurn,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ---- inputs ----

// gen draws one stream of inputs. Every draw comes from the seed, so a
// seed and a stream number name one input sequence.
type gen struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

// setupStream is the stream set-up inputs come from; callers use their
// index.
const setupStream = 1 << 32

func newGen(seed int64, stream uint64) *gen {
	r := rand.New(rand.NewPCG(uint64(seed), stream))
	return &gen{r: r, zipf: rand.NewZipf(r, 1.1, 1, interactiveSessions-1)}
}

func (g *gen) index(n int) int                { return g.r.IntN(n) }
func (g *gen) hot() int                       { return int(g.zipf.Uint64()) }
func (g *gen) uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }
func (g *gen) normal(mu, sd float64) float64  { return mu + sd*g.r.NormFloat64() }

// buckets appends k distinct indices below n to dst.
func (g *gen) buckets(dst []int, k, n int) []int {
	base := len(dst)
	for len(dst)-base < k {
		b := g.r.IntN(n)
		dup := false
		for _, x := range dst[base:] {
			if x == b {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, b)
		}
	}
	return dst
}

// histogram is a private dataset of n bucket counts.
func (g *gen) histogram(n int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(g.r.IntN(200))
	}
	return h
}

// sessionID is a well-formed session ID the server never issued.
func (g *gen) sessionID() string {
	return fmt.Sprintf("%016x%016x", g.r.Uint64(), g.r.Uint64())
}

// ---- sessions and their acked accounting ----

// session is the benchmark's ledger entry for one session: what it asked
// for and every answer the server acknowledged.
type session struct {
	id        string
	mech      string
	cutoff    int
	epsilon   float64
	histogram bool
	answered  atomic.Int64
	positives atomic.Int64
	deleted   bool // written by the owning caller, read after the run
}

// spent reports whether an answer consumed the session's positive (or,
// for a histogram mediator, update) budget.
func (s *session) spent(r client.QueryResult) bool {
	if s.histogram {
		return !r.FromSynthetic
	}
	return r.Above
}

// checkStatus compares the server's view of a session with its acked
// answers.
func (s *session) checkStatus(st *client.SessionStatus) error {
	answered, positives := int(s.answered.Load()), int(s.positives.Load())
	switch {
	case st.Answered != answered:
		return fmt.Errorf("session %s (%s): status answered %d, acked %d", s.id, s.mech, st.Answered, answered)
	case st.Positives != positives:
		return fmt.Errorf("session %s (%s): status positives %d, acked %d", s.id, s.mech, st.Positives, positives)
	case st.Remaining != s.cutoff-positives:
		return fmt.Errorf("session %s (%s): %d remaining after %d of %d positives", s.id, s.mech, st.Remaining, positives, s.cutoff)
	case st.Halted != (positives >= s.cutoff):
		return fmt.Errorf("session %s (%s): halted=%v after %d of %d positives", s.id, s.mech, st.Halted, positives, s.cutoff)
	case math.Abs(st.Budget.Total-s.epsilon) > 1e-9*s.epsilon:
		return fmt.Errorf("session %s (%s): budget total %v, configured %v", s.id, s.mech, st.Budget.Total, s.epsilon)
	}
	return nil
}

type ledger struct {
	mu       sync.Mutex
	sessions []*session
}

func (l *ledger) add(id string, p client.CreateParams) *session {
	s := &session{id: id, mech: p.Mechanism, cutoff: p.MaxPositives, epsilon: p.Epsilon, histogram: len(p.Histogram) > 0}
	l.mu.Lock()
	l.sessions = append(l.sessions, s)
	l.mu.Unlock()
	return s
}

// ---- phases ----

// phase is one stack set up for one workload, and the timed runs made
// against it.
type phase struct {
	w        *workload
	seed     int64
	stack    *stack
	seams    *seams
	apis     []api // one per connection
	standing []*session
	ledger   ledger
	params   map[string]client.CreateParams // churn-durable's create requests
	deadline atomic.Int64                   // unix ns; callers stop issuing past it

	mu         sync.Mutex
	violations []string
}

// violate records a correctness violation; any one fails the run.
func (p *phase) violate(format string, args ...any) {
	p.mu.Lock()
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

func (p *phase) running() bool { return time.Now().UnixNano() < p.deadline.Load() }

// caller is one closed-loop client goroutine.
type caller struct {
	idx   int
	api   api
	g     *gen
	t     *tally // nil outside a timed run
	seq   int
	items []client.QueryItem
	arena []int
	deck  []int
}

// deal returns the next of n session indices from a seeded shuffle, so
// each session gets an equal share of the caller's requests and the
// pmw share of batch-http does not vary with the seed.
func (c *caller) deal(n int) int {
	if len(c.deck) == 0 {
		c.deck = c.g.r.Perm(n)
	}
	i := c.deck[len(c.deck)-1]
	c.deck = c.deck[:len(c.deck)-1]
	return i
}

// call books one request: its latency into the caller's tally and, when
// traced, a span naming the request.
func (p *phase) call(c *caller, name string, fn func(ct *callTime) error) error {
	var ct callTime
	err := fn(&ct)
	if c.t == nil {
		return err
	}
	c.seq++
	d := int64(ct.end.Sub(ct.start))
	c.t.attempted++
	c.t.callNs += d
	c.t.lat.add(d)
	if err != nil {
		c.t.failed++
		p.violate("%s failed in the timed phase: %v", name, err)
	}
	if p.seams != nil && !p.seams.spans.full() {
		p.seams.spans.add("client."+name, ct.start, ct.end, strconv.Itoa(c.idx)+"/"+strconv.Itoa(c.seq))
	}
	return err
}

// query sends one batch and settles its answers against the session.
func (p *phase) query(c *caller, s *session, items []client.QueryItem) (*client.BatchResult, error) {
	var res *client.BatchResult
	err := p.call(c, "query", func(ct *callTime) (err error) {
		res, err = c.api.query(s.id, items, ct)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := p.settle(s, len(items), res)
	if c.t != nil {
		c.t.answered += int64(n)
	}
	return res, nil
}

// settle books an acknowledged batch against its session and checks what
// the reply alone can prove: no more answers than asked, a short batch
// only from a halted session, and a halt exactly when nothing remains.
func (p *phase) settle(s *session, asked int, res *client.BatchResult) int {
	n := len(res.Results)
	if n > asked {
		p.violate("session %s: %d answers to %d queries", s.id, n, asked)
	}
	if n < asked && !res.Halted {
		p.violate("session %s (%s): %d of %d answers from a session that has not halted", s.id, s.mech, n, asked)
	}
	if res.Halted != (res.Remaining == 0) || res.Remaining < 0 || res.Remaining > s.cutoff {
		p.violate("session %s (%s): halted=%v with %d of %d remaining", s.id, s.mech, res.Halted, res.Remaining, s.cutoff)
	}
	pos := 0
	for _, r := range res.Results {
		if s.spent(r) {
			pos++
		}
	}
	s.answered.Add(int64(n))
	s.positives.Add(int64(pos))
	return n
}

func (p *phase) create(c *caller, params client.CreateParams) (*session, error) {
	var id string
	err := p.call(c, "create", func(ct *callTime) (err error) {
		id, err = c.api.create(params, ct)
		return err
	})
	if err != nil {
		return nil, err
	}
	return p.ledger.add(id, params), nil
}

// newCaller builds caller i of a run; t is nil for set-up traffic.
func (p *phase) newCaller(i int, stream uint64, t *tally) *caller {
	return &caller{idx: i, api: p.apis[i%len(p.apis)], g: newGen(p.seed, stream), t: t}
}

// parallel runs fn(worker, i) for i in [0, n) on k worker goroutines;
// a worker stops at its first error, and the errors come back joined.
func parallel(n, k int, fn func(worker, i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drive runs the workload's callers for d and returns their merged
// record. Set-up must have finished.
func (p *phase) drive(d time.Duration) *summary {
	n := p.w.conns * p.w.callersPerConn
	start := time.Now()
	p.deadline.Store(start.Add(d).UnixNano())
	tallies := make([]*tally, n)
	var wg sync.WaitGroup
	for i := range tallies {
		tallies[i] = new(tally)
		c := p.newCaller(i, uint64(i), tallies[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.running() {
				if err := p.w.step(p, c); err != nil {
					return // already booked as a failure and a violation
				}
			}
		}()
	}
	wg.Wait()
	return summarize(tallies, time.Since(start))
}

// check compares every session the phase created with mgr's state:
// acked answers match, deleted sessions are gone.
func (p *phase) check(mgr *server.SessionManager, when string) {
	for _, s := range p.ledger.sessions {
		live, ok := mgr.Get(s.id)
		switch {
		case s.deleted && ok:
			p.violate("%s: session %s was deleted but is live", when, s.id)
		case !s.deleted && !ok:
			p.violate("%s: session %s is missing", when, s.id)
		case ok:
			if err := s.checkStatus(clientStatus(live.Status())); err != nil {
				p.violate("%s: %v", when, err)
			}
		}
	}
}

// recovered reopens the closed stack's directory and checks that recovery
// kept every undeleted session with its acked answers and dropped every
// deleted one.
func (p *phase) recovered() error {
	wal, err := store.NewWAL(store.WALConfig{Dir: p.stack.cfg.dir, Sync: p.w.sync})
	if err != nil {
		return fmt.Errorf("reopening WAL: %w", err)
	}
	mgr, err := server.Open(server.ManagerConfig{Store: wal, SnapshotInterval: -1})
	if err != nil {
		_ = wal.Close()
		return fmt.Errorf("recovering: %w", err)
	}
	p.check(mgr, "after restart")
	mgr.Close()
	return wal.Close()
}

// ---- interactive-wire ----

const interactiveSessions = 1024

// neverHalting is the committed server benchmarks' session: the threshold
// sits far above every query value, so every answer is ⊥.
func neverHalting(mechanism string) client.CreateParams {
	return client.CreateParams{Mechanism: mechanism, Epsilon: 1, MaxPositives: 1 << 30, Threshold: client.Float(1e12)}
}

func setupInteractive(p *phase) error {
	if err := p.createStanding(interactiveSessions, func(int) client.CreateParams { return neverHalting("sparse") }); err != nil {
		return err
	}
	if p.stack.wireSrv == nil {
		return nil // the manager rung: no connection, no intern cache
	}
	// Fill each connection's session-ID intern cache, one query at a time
	// so the server answers inline: the steady state of a long-lived
	// connection, and what keeps the pipelined phase from writing that map.
	return parallel(len(p.apis), len(p.apis), func(_, conn int) error {
		c := p.newCaller(conn, setupStream+uint64(conn), nil)
		for _, s := range p.standing {
			if _, err := p.query(c, s, []client.QueryItem{{Query: c.g.uniform(0, 1000)}}); err != nil {
				return fmt.Errorf("warm-up query: %w", err)
			}
		}
		return nil
	})
}

// createStanding creates n sessions over the phase's connections.
func (p *phase) createStanding(n int, params func(i int) client.CreateParams) error {
	p.standing = make([]*session, n)
	workers := 8 * len(p.apis)
	return parallel(n, workers, func(w, i int) error {
		s, err := p.create(p.newCaller(w, setupStream, nil), params(i))
		if err != nil {
			return fmt.Errorf("creating session %d: %w", i, err)
		}
		p.standing[i] = s
		return nil
	})
}

func stepInteractive(p *phase, c *caller) error {
	s := p.standing[c.g.hot()]
	c.items = append(c.items[:0], client.QueryItem{Query: c.g.uniform(0, 1000)})
	_, err := p.query(c, s, c.items)
	return err
}

// ---- batch-http ----

const (
	batchSize        = 64
	batchPerSVT      = 14
	batchPMW         = 8
	batchPMWBuckets  = 4096
	pmwQueryBuckets  = 32
	batchPMWCutoff   = 8
	pmwFreeThreshold = 1e9 // above any |estimate - truth|: every answer is synthetic
)

var svtMechanisms = []string{"sparse", "proposed", "dpbook", "esvt"}

func setupBatch(p *phase) error {
	g := newGen(p.seed, setupStream)
	hists := make([][]float64, batchPMW)
	for i := range hists {
		hists[i] = g.histogram(batchPMWBuckets)
	}
	svt := len(svtMechanisms) * batchPerSVT
	return p.createStanding(svt+batchPMW, func(i int) client.CreateParams {
		if i < svt {
			return neverHalting(svtMechanisms[i/batchPerSVT])
		}
		return client.CreateParams{
			Mechanism: "pmw", Epsilon: 1, MaxPositives: batchPMWCutoff,
			Threshold: client.Float(pmwFreeThreshold), Histogram: hists[i-svt],
		}
	})
}

func stepBatch(p *phase, c *caller) error {
	s := p.standing[c.deal(len(p.standing))]
	c.items = c.items[:0]
	if s.histogram {
		if c.arena == nil {
			c.arena = make([]int, 0, batchSize*pmwQueryBuckets)
		}
		c.arena = c.arena[:0]
		for i := 0; i < batchSize; i++ {
			lo := len(c.arena)
			c.arena = c.g.buckets(c.arena, pmwQueryBuckets, batchPMWBuckets)
			c.items = append(c.items, client.QueryItem{Buckets: c.arena[lo:len(c.arena):len(c.arena)]})
		}
	} else {
		for i := 0; i < batchSize; i++ {
			c.items = append(c.items, client.QueryItem{Query: c.g.uniform(0, 1000)})
		}
	}
	_, err := p.query(c, s, c.items)
	return err
}

// ---- churn-durable ----

const (
	churnCutoff       = 4
	churnMaxQueries   = 32
	churnPMWBuckets   = 1024
	churnThreshold    = 100
	churnPMWThreshold = 520  // about half the pmw lifecycles spend all 4 updates
	internCacheCap    = 4096 // the wire edge's per-connection session-ID intern cache
)

// churnOffset is how far below the session threshold each SVT mechanism's
// query values are centred (standard deviation 4), chosen by simulating
// each mechanism so about half of its lifecycles halt before query
// churnMaxQueries.
var churnOffset = map[string]float64{"sparse": 16, "proposed": 24, "dpbook": 22, "esvt": 13}

var churnMechanisms = []string{"dpbook", "esvt", "pmw", "proposed", "sparse"}

func setupChurn(p *phase) error {
	g := newGen(p.seed, setupStream)
	hist := g.histogram(churnPMWBuckets)
	p.params = map[string]client.CreateParams{}
	for _, m := range churnMechanisms {
		p.params[m] = client.CreateParams{Mechanism: m, Epsilon: 1, MaxPositives: churnCutoff, Threshold: client.Float(churnThreshold)}
	}
	pmw := p.params["pmw"]
	pmw.Threshold, pmw.Histogram = client.Float(churnPMWThreshold), hist
	p.params["pmw"] = pmw
	if p.stack.wireSrv == nil {
		return nil // the manager rung: no connection, no intern cache
	}
	// Fill each connection's intern cache to its cap with IDs of no
	// session, one at a time: past the cap new IDs never enter it, as on
	// any connection that has seen 4096 sessions, so the pipelined phase
	// never writes that map.
	ids := make([]string, internCacheCap)
	for i := range ids {
		ids[i] = g.sessionID()
	}
	return parallel(len(p.apis), len(p.apis), func(_, conn int) error {
		var ct callTime
		for _, id := range ids {
			_, err := p.apis[conn].query(id, []client.QueryItem{{Query: 1}}, &ct)
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Code != "not_found" {
				return fmt.Errorf("warm-up query for an unknown session: got %v, want not_found", err)
			}
		}
		return nil
	})
}

// stepChurn runs one analyst session lifecycle. Past the deadline it
// stops between requests, leaving the session live for the recovery
// check.
func stepChurn(p *phase, c *caller) error {
	m := churnMechanisms[c.g.index(len(churnMechanisms))]
	s, err := p.create(c, p.params[m])
	if err != nil {
		return err
	}
	for q := 0; q < churnMaxQueries && p.running(); q++ {
		c.items = c.items[:0]
		if s.histogram {
			c.arena = c.g.buckets(c.arena[:0], pmwQueryBuckets, churnPMWBuckets)
			c.items = append(c.items, client.QueryItem{Buckets: c.arena})
		} else {
			c.items = append(c.items, client.QueryItem{Query: c.g.normal(churnThreshold-churnOffset[m], 4)})
		}
		res, err := p.query(c, s, c.items)
		if err != nil {
			return err
		}
		if res.Halted {
			break
		}
	}
	if !p.running() {
		return nil
	}
	var st *client.SessionStatus
	if err := p.call(c, "status", func(ct *callTime) (err error) {
		st, err = c.api.status(s.id, ct)
		return err
	}); err != nil {
		return err
	}
	if err := s.checkStatus(st); err != nil {
		p.violate("%v", err)
	}
	if !p.running() {
		return nil
	}
	if err := p.call(c, "delete", func(ct *callTime) error { return c.api.remove(s.id, ct) }); err != nil {
		return err
	}
	s.deleted = true
	if c.t != nil {
		c.t.lifecycles++
	}
	return nil
}
