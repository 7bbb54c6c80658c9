// Command svtperf is the repository's serving benchmark. It starts the
// cmd/svtserve stack in-process with svtserve's default configuration, a
// WAL on disk, and drives it over loopback TCP through the Go SDK
// (client) and net/http with closed-loop callers. It checks the budget
// accounting of every answer, and prints one JSON result as the last
// line of standard output.
//
//	bash svtperf/run.sh --workload interactive-wire --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one untraced run,
// every time scaled to a reference machine speed that a probe measures
// through the run, and the times as measured beside them. With --trace 1
// it runs the workload three times — untraced, traced
// with timing wrappers at every public seam, and straight into the
// SessionManager (the manager rung) — and reports per-layer metrics.
// README.md in this directory says why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/mech"
)

type config struct {
	w      *workload
	seed   int64
	run    time.Duration
	traced bool
	dir    string
}

// setupRounds is how many times an end-to-end run sets the stack up; it
// reports the median, so a few slow disk flushes do not move setup_s.
const setupRounds = 15

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		name      = flag.String("workload", "", "workload: "+strings.Join(names, ", "))
		seed      = flag.Int64("seed", 1, "seed every generated input is drawn from")
		seconds   = flag.Int("seconds", 10, "length of each timed run in seconds")
		traceFlag = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		dir       = flag.String("dir", ".bench_build", "directory for WAL directories and span dumps")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		fail(2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", ")))
	case *seconds < 1:
		fail(2, fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	case *traceFlag != 0 && *traceFlag != 1:
		fail(2, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag))
	}
	cfg := &config{w: w, seed: *seed, run: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, dir: *dir}
	if err := os.MkdirAll(filepath.Join(cfg.dir, "wal"), 0o755); err != nil {
		fail(1, err)
	}
	fp, err := json.Marshal(machine(filepath.Join(cfg.dir, "wal")))
	if err != nil {
		fail(1, err)
	}
	fmt.Printf("fingerprint %s\n", fp)
	var res *result
	if cfg.traced {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fail(1, err)
	}
	for _, v := range res.violations[:min(len(res.violations), 20)] {
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	if n := len(res.violations); n > 20 {
		fmt.Fprintf(os.Stderr, "... and %d more violations\n", n-20)
	}
	for _, m := range res.order {
		fmt.Println(line(m, res.Metrics[m].Value, res.Metrics[m].Unit))
	}
	for _, m := range res.extra {
		fmt.Println(m)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "svtperf:", err)
	os.Exit(code)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order      []string // print order of Metrics
	extra      []string // human-readable lines that are not graded
	violations []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// book adds a timed run's request counts and its phase's violations.
func (r *result) book(p *phase, s *summary) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.violations = append(r.violations, p.violations...)
	r.Correct = len(r.violations) == 0
}

type phaseKind int

const (
	fullStack phaseKind = iota
	managerRung
)

// openPhase sets up a fresh stack: WAL directory, server, connections,
// sessions and warm-up.
func openPhase(cfg *config, kind phaseKind, sm *seams) (*phase, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.dir, "wal"), cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	st, err := openStack(stackConfig{dir: dir, sync: cfg.w.sync, snapshot: cfg.w.snapshot, seams: sm, edges: kind == fullStack})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	p := &phase{w: cfg.w, seed: cfg.seed, stack: st, seams: sm}
	switch {
	case kind == managerRung:
		p.apis = []api{mgrAPI{st.mgr}}
	case cfg.w.edge == edgeWire:
		for i := 0; i < cfg.w.conns; i++ {
			a, err := dialSDK(st.wireAddr, sm)
			if err != nil {
				p.discard()
				return nil, fmt.Errorf("dialing the wire edge: %w", err)
			}
			p.apis = append(p.apis, a)
		}
	default:
		for i := 0; i < cfg.w.conns; i++ {
			p.apis = append(p.apis, newHTTPAPI(st.httpAddr, sm))
		}
	}
	if err := cfg.w.setup(p); err != nil {
		p.discard()
		return nil, fmt.Errorf("setting up %s: %w", cfg.w.name, err)
	}
	return p, nil
}

// discard tears down a phase whose set-up failed.
func (p *phase) discard() {
	for _, a := range p.apis {
		a.close()
	}
	_ = p.stack.close() // the set-up error is the one to report
	os.RemoveAll(p.stack.cfg.dir)
}

// finish ends a phase: checks every session against the manager, shuts
// the stack down the way svtserve does, checks recovery for durable
// workloads, and removes the WAL directory.
func (p *phase) finish() error {
	if err := p.stack.alive(); err != nil {
		p.violate("%v", err)
	}
	p.check(p.stack.mgr, "after the run")
	for _, a := range p.apis {
		a.close()
	}
	err := p.stack.close()
	if err == nil && p.w.durable {
		err = p.recovered()
	}
	if rerr := os.RemoveAll(p.stack.cfg.dir); err == nil {
		err = rerr
	}
	return err
}

// measured is what one timed run of a phase produced.
type measured struct {
	sum                *summary
	proc               procDelta
	seams              seamCounts // timed-window deltas; traced runs only
	appends, bytes     uint64     // journal counters over the timed window
	syncs              uint64
	retries, ambiguous uint64
}

func (p *phase) measure(d time.Duration) (*measured, error) {
	var s0 seamCounts
	if p.seams != nil {
		s0 = p.seams.read()
	}
	h0, c0 := p.stack.wal.Health(), p.clientStats()
	pr0 := readProc()
	sum := p.drive(d)
	pr1 := readProc()
	h1, c1 := p.stack.wal.Health(), p.clientStats()
	m := &measured{
		sum:       sum,
		appends:   h1.Appends - h0.Appends,
		bytes:     h1.AppendedBytes - h0.AppendedBytes,
		syncs:     h1.Syncs - h0.Syncs,
		retries:   c1.Retries - c0.Retries,
		ambiguous: c1.Ambiguous - c0.Ambiguous,
	}
	if p.seams != nil {
		m.seams = p.seams.read().sub(s0)
	}
	var err error
	m.proc, err = diffProc(pr0, pr1)
	return m, err
}

func (p *phase) clientStats() client.Stats {
	var st client.Stats
	for _, a := range p.apis {
		if s, ok := a.(sdkAPI); ok {
			cs := s.c.Stats()
			st.Retries += cs.Retries
			st.Ambiguous += cs.Ambiguous
		}
	}
	return st
}

func runEndToEnd(cfg *config) (*result, error) {
	var (
		p      *phase
		setups []float64
	)
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		q, err := openPhase(cfg, fullStack, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupRounds-1 {
			p = q
			break
		}
		if err := q.finish(); err != nil {
			return nil, err
		}
		if len(q.violations) > 0 {
			return &result{violations: q.violations}, nil
		}
	}
	pr := startProbe()
	m, err := p.measure(cfg.run)
	probed, perr := pr.finish()
	if ferr := p.finish(); err == nil {
		err = ferr
	}
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.book(p, m.sum)
	p50, err := m.sum.latencyUs(0.50)
	if err != nil {
		return nil, fmt.Errorf("p50: %w", err)
	}
	p99, err := m.sum.latencyUs(0.99)
	if err != nil {
		return nil, fmt.Errorf("p99: %w", err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	// slow is how many times slower than the reference speed the machine
	// ran; every graded time is scaled to the reference speed by it.
	qps, setup := m.sum.qps(), median(setups)
	slow := float64(probed) / float64(probeRef)
	res.set("qps", qps*slow, "queries/s")
	res.set("p50_us", p50/slow, "us")
	res.set("p99_us", p99/slow, "us")
	res.set("setup_s", setup/slow, "s")
	res.set("rss_mb", rss, "MiB")
	// Printed by name but not graded: the speed probe and the times as
	// measured, which vary with the machine's speed; fail_ratio, 0 on
	// every accepted run (a failed request fails the run); and
	// sessions_per_s, 0 outside churn-durable, the only workload that
	// ends sessions in its timed phase.
	res.extra = append(res.extra,
		line("probe_us", float64(probed)/1e3, "us"),
		line("measured.qps", qps, "queries/s"),
		line("measured.p50_us", p50, "us"),
		line("measured.p99_us", p99, "us"),
		line("measured.setup_s", setup, "s"),
		line("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio"),
		line("sessions_per_s", float64(m.sum.lifecycles)/m.sum.elapsed.Seconds(), "sessions/s"))
	return res, nil
}

// line is one printed metric: name, value, unit.
func line(name string, v float64, unit string) string {
	return fmt.Sprintf("%-28s %16.4f %s", name, v, unit)
}

// runTraced makes the three runs of the per-layer report, each a third of
// the run length: untraced (the baseline the tracing overhead is
// measured against, and the source of the proc.* metrics), traced, and
// the manager rung.
func runTraced(cfg *config) (*result, error) {
	res := &result{}
	d := max(cfg.run/3, time.Second)
	u, mu, err := runPhase(cfg, d, fullStack, nil)
	if err != nil {
		return nil, err
	}
	res.book(u, mu.sum)

	sm := newSeams(time.Now())
	t, mt, err := runPhase(cfg, d, fullStack, sm)
	if err != nil {
		return nil, err
	}
	res.book(t, mt.sum)
	whole := sm.read()

	m, mm, err := runPhase(cfg, d, managerRung, nil)
	if err != nil {
		return nil, err
	}
	res.book(m, mm.sum)

	spans := filepath.Join(cfg.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}
	kept, err := sm.spans.write(spans)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "svtperf: the first %d spans of the traced run are in %s\n", kept, spans)
	return res, layerMetrics(res, mu, mt, mm, whole)
}

// runPhase sets up, measures for d and finishes one phase.
func runPhase(cfg *config, d time.Duration, kind phaseKind, sm *seams) (*phase, *measured, error) {
	p, err := openPhase(cfg, kind, sm)
	if err != nil {
		return nil, nil, err
	}
	m, err := p.measure(d)
	if err == nil {
		label := "untraced"
		switch {
		case kind == managerRung:
			label = "manager rung"
		case sm != nil:
			label = "traced"
		}
		fmt.Fprintf(os.Stderr, "svtperf: %s run: %.0f queries/s\n", label, m.sum.qps())
	}
	if ferr := p.finish(); err == nil {
		err = ferr
	}
	return p, m, err
}

// layerMetrics fills the per-layer report from the untraced run u, the
// traced run t, the manager rung m, and whole, the traced phase's seam
// counts end to end. Every row comes from t's timed window except
// mech.new_us, which counts set-up too because most sessions are created
// there. A seam the workload sends no traffic through in that window,
// such as the HTTP handler in the wire workloads, reads 0.
func layerMetrics(res *result, u, t, m *measured, whole seamCounts) error {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reqs := float64(t.sum.attempted)
	answered := float64(t.sum.answered)
	s := t.seams
	answers, answerNs := s.totalAnswers()

	res.set("client.call_us", div(float64(t.sum.callNs), reqs)/1e3, "us")
	res.set("client.retries_per_kreq", div(float64(t.retries), reqs)*1000, "1/kreq")
	res.set("client.ambiguous", float64(t.ambiguous), "count")
	res.set("net.client_writes_per_req", div(float64(s.cliWrites), reqs), "1/req")
	res.set("net.server_writes_per_req", div(float64(s.srvWrites), reqs), "1/req")
	res.set("net.server_reads_per_req", div(float64(s.srvReads), reqs), "1/req")
	res.set("net.bytes_per_query", div(float64(s.cliBytes), answered), "B/query")

	res.set("http.serve_us", div(float64(s.serveNs), float64(s.serveN))/1e3, "us")
	res.set("http.self_us", div(float64(s.serveNs-answerNs-s.newNs-s.appendNs), float64(s.serveN))/1e3, "us")

	uAnswered, mAnswered := float64(u.sum.answered), float64(m.sum.answered)
	res.set("manager.rung_qps", m.sum.qps(), "queries/s")
	res.set("edge.cpu_us_per_query", div(u.proc.cpuUs, uAnswered)-div(m.proc.cpuUs, mAnswered), "us")

	for _, name := range mech.Default.Names() {
		res.set("mech."+name+".answer_ns", div(float64(s.answerNs[name]), float64(s.answerN[name])), "ns")
	}
	res.set("mech.answers_per_query", div(float64(answers), answered), "1/query")
	res.set("mech.new_us", div(float64(whole.newNs), float64(whole.newN))/1e3, "us")

	p99, err := histPercentile(s.appendLat, 0.99)
	if err != nil {
		return fmt.Errorf("store append p99: %w", err)
	}
	res.set("store.append_us", div(float64(s.appendNs), float64(s.appendN))/1e3, "us")
	res.set("store.append_p99_us", p99/1e3, "us")
	res.set("store.appends_per_query", div(float64(s.appendN), answered), "1/query")
	res.set("store.bytes_per_query", div(float64(t.bytes), answered), "B/query")
	res.set("store.events_per_sync", div(float64(t.appends), float64(t.syncs)), "1/sync")
	res.set("store.sync_us", div(float64(s.syncNs), float64(s.syncN))/1e3, "us")
	res.set("store.snapshot_ms", div(float64(s.snapNs), float64(s.snapN))/1e6, "ms")

	res.set("proc.cpu_us_per_query", div(u.proc.cpuUs, uAnswered), "us")
	res.set("proc.allocs_per_query", div(u.proc.allocs, uAnswered), "1/query")
	res.set("proc.gc_cpu_frac", u.proc.gcFrac, "ratio")
	res.set("proc.sched_p99_us", u.proc.schedP99Us, "us")
	res.set("trace.overhead_frac", 1-div(t.sum.qps(), u.sum.qps()), "ratio")
	return nil
}
