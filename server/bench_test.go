package server

// Parallel-load benchmarks of the session service, the acceptance gauge
// for the ISSUE 1 tentpole: ≥ 64 concurrent sessions must sustain well
// over 10k queries/sec, and throughput must scale with the shard count.
//
// Set SVT_BENCH_JSON=BENCH_server.json to also write a machine-readable
// summary (one {"benchmarks": [...]} document per run) so future PRs can
// track server throughput as a trajectory:
//
//	SVT_BENCH_JSON=BENCH_server.json go test -bench . -run '^$' ./server/

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// benchEntry is one benchmark's summary line in the JSON trajectory.
type benchEntry struct {
	Name          string  `json:"name"`
	QueriesPerSec float64 `json:"queriesPerSec"`
	NsPerOp       float64 `json:"nsPerOp"`
	AllocsPerOp   float64 `json:"allocsPerOp"`
	BytesPerOp    float64 `json:"bytesPerOp"`
	Ops           int     `json:"ops"`
	Sessions      int     `json:"sessions"`
	Shards        int     `json:"shards"`
}

// memTrack measures the allocation trajectory of a benchmark's timed
// section from runtime.MemStats deltas (Mallocs/TotalAlloc are cumulative
// and monotone, so GC in between does not disturb them). Call startMem
// just before ResetTimer and perOp after StopTimer.
type memTrack struct{ m0 runtime.MemStats }

func startMem() *memTrack {
	t := new(memTrack)
	runtime.ReadMemStats(&t.m0)
	return t
}

func (t *memTrack) perOp(n int) (allocs, bytes float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-t.m0.Mallocs) / float64(n), float64(m1.TotalAlloc-t.m0.TotalAlloc) / float64(n)
}

// benchSummary is the whole JSON document.
type benchSummary struct {
	Package    string       `json:"package"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	CPUs       int          `json:"cpus"`
	Timestamp  string       `json:"timestamp"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

var (
	benchMu      sync.Mutex
	benchEntries []benchEntry
)

// recordBench stashes one benchmark result for the JSON summary. The
// testing package re-runs each benchmark while calibrating b.N, so a
// later call with the same name (always the larger, final run) replaces
// the earlier one.
func recordBench(b *testing.B, mt *memTrack, sessions, shards int) {
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/sec")
	allocs, bytes := mt.perOp(b.N)
	b.ReportMetric(allocs, "allocs/op-meas")
	record(benchEntry{
		Name:          strings.TrimPrefix(b.Name(), "Benchmark"),
		QueriesPerSec: qps,
		NsPerOp:       float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		Ops:           b.N,
		Sessions:      sessions,
		Shards:        shards,
	})
}

func record(e benchEntry) {
	benchMu.Lock()
	defer benchMu.Unlock()
	for i := range benchEntries {
		if benchEntries[i].Name == e.Name {
			benchEntries[i] = e
			return
		}
	}
	benchEntries = append(benchEntries, e)
}

// TestMain writes the JSON summary after the run when SVT_BENCH_JSON
// names a file.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("SVT_BENCH_JSON"); path != "" && len(benchEntries) > 0 {
		doc := benchSummary{
			Package:    "github.com/dpgo/svt/server",
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			Benchmarks: benchEntries,
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "server: writing bench summary:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// benchManager builds a manager with n never-halting sparse sessions.
func benchManager(b *testing.B, shards, sessions int) (*SessionManager, []string) {
	b.Helper()
	return benchManagerStore(b, shards, sessions, nil, nil)
}

// benchManagerWAL is benchManager journaling to a real write-ahead log in a
// temp dir, with the production-default interval fsync policy.
func benchManagerWAL(b *testing.B, shards, sessions int) (*SessionManager, []string) {
	b.Helper()
	st, err := store.NewWAL(store.WALConfig{Dir: b.TempDir(), Sync: store.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	return benchManagerStore(b, shards, sessions, st, nil)
}

func benchManagerStore(b *testing.B, shards, sessions int, st store.SessionStore, reg *telemetry.Registry) (*SessionManager, []string) {
	b.Helper()
	m, err := Open(ManagerConfig{Shards: shards, SweepInterval: time.Hour, SnapshotInterval: -1, Store: st, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	ids := make([]string, sessions)
	for i := range ids {
		s, err := m.Create(CreateParams{
			Mechanism:    MechSparse,
			Epsilon:      1,
			MaxPositives: 1 << 30,
			Threshold:    ptr(1e12), // queries stay far below: all ⊥, no halt
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = s.ID()
	}
	return m, ids
}

// BenchmarkManagerParallel drives 64 concurrent sessions through the
// manager at several shard counts; queries/sec across the shard sweep is
// the shard-scaling curve.
func BenchmarkManagerParallel(b *testing.B) {
	const sessions = 64
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m, ids := benchManager(b, shards, sessions)
			var next atomic.Uint64
			mt := startMem()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks the session pool from its own
				// offset so traffic spreads across shards.
				i := int(next.Add(1)) * 7
				item := []QueryItem{{Query: 1}}
				for pb.Next() {
					i++
					if _, err := m.Query(ids[i%len(ids)], item); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			recordBench(b, mt, sessions, shards)
		})
	}
}

// BenchmarkManagerSingleSession is the contention worst case: every
// goroutine serializes on one session's mutex. The gap to
// ManagerParallel/shards=16 is what multi-tenancy buys.
func BenchmarkManagerSingleSession(b *testing.B) {
	m, ids := benchManager(b, DefaultShards, 1)
	mt := startMem()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		item := []QueryItem{{Query: 1}}
		for pb.Next() {
			if _, err := m.Query(ids[0], item); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	recordBench(b, mt, 1, DefaultShards)
}

// BenchmarkManagerBatch64 amortizes the routing over 64-query batches —
// the async-batching direction future PRs will push further.
func BenchmarkManagerBatch64(b *testing.B) {
	const sessions = 64
	m, ids := benchManager(b, 16, sessions)
	batch := make([]QueryItem, 64)
	for i := range batch {
		batch[i] = QueryItem{Query: float64(i)}
	}
	var next atomic.Uint64
	mt := startMem()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7
		for pb.Next() {
			i++
			if _, err := m.Query(ids[i%len(ids)], batch); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	// One op is 64 queries; report per-query throughput.
	qps := float64(b.N) * 64 / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/sec")
	allocs, bytes := mt.perOp(b.N)
	record(benchEntry{
		Name:          strings.TrimPrefix(b.Name(), "Benchmark"),
		QueriesPerSec: qps,
		NsPerOp:       float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		Ops:           b.N,
		Sessions:      sessions,
		Shards:        16,
	})
}

// BenchmarkHTTPQueryParallel exercises the whole stack — routing, JSON
// decode, session query, JSON encode — via in-process handler dispatch
// across 64 sessions.
func BenchmarkHTTPQueryParallel(b *testing.B) {
	const sessions = 64
	m, ids := benchManager(b, 16, sessions)
	benchHTTP(b, m, ids, sessions, APIConfig{})
}

// walParallelism is how many concurrent request goroutines per GOMAXPROCS
// the WAL-backed benchmarks drive: the group-commit coalescing a loaded
// server gets only exists under concurrency (see BenchmarkManagerParallelWAL).
const walParallelism = 64

// BenchmarkHTTPQueryParallelWAL is the same full-stack load with every
// answered batch journaled to a write-ahead log (interval fsync) before the
// response is released — the ISSUE 2 acceptance gauge: ≥ 50k queries/sec.
func BenchmarkHTTPQueryParallelWAL(b *testing.B) {
	const sessions = 64
	m, ids := benchManagerWAL(b, 16, sessions)
	b.SetParallelism(walParallelism)
	benchHTTP(b, m, ids, sessions, APIConfig{})
}

// BenchmarkHTTPQueryParallelWALTelemetry is HTTPQueryParallelWAL with the
// three-layer telemetry registry attached (slow-query tracing off, as in
// the default production configuration). The gap to the uninstrumented
// run is the telemetry overhead; README reports it as measured, and no
// gate checks it yet.
func BenchmarkHTTPQueryParallelWALTelemetry(b *testing.B) {
	const sessions = 64
	reg := telemetry.NewRegistry()
	st, err := store.NewWAL(store.WALConfig{Dir: b.TempDir(), Sync: store.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	m, ids := benchManagerStore(b, 16, sessions, st, reg)
	b.SetParallelism(walParallelism)
	benchHTTP(b, m, ids, sessions, APIConfig{Telemetry: reg})
}

// BenchmarkHTTPQueryParallelWALTraced is the fully observed configuration:
// telemetry registry plus the tracer at its default 1-in-16 head sampling,
// exactly what `svtserve` runs with out of the box. The gap to
// HTTPQueryParallelWALTelemetry is the tracing overhead; the gap to
// HTTPQueryParallelWAL (no telemetry at all) is the whole observability
// bill. Neither gap is gated yet: benchgate compares each row to its own
// baseline and checks no ratio.
func BenchmarkHTTPQueryParallelWALTraced(b *testing.B) {
	const sessions = 64
	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Config{})
	st, err := store.NewWAL(store.WALConfig{Dir: b.TempDir(), Sync: store.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	m, err := Open(ManagerConfig{
		Shards: 16, SweepInterval: time.Hour, SnapshotInterval: -1,
		Store: st, Telemetry: reg, Tracer: tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	ids := make([]string, sessions)
	for i := range ids {
		s, err := m.Create(CreateParams{
			Mechanism: MechSparse, Epsilon: 1, MaxPositives: 1 << 30,
			Threshold: ptr(1e12), Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = s.ID()
	}
	b.SetParallelism(walParallelism)
	benchHTTP(b, m, ids, sessions, APIConfig{Telemetry: reg, Tracer: tracer})
}

// BenchmarkManagerParallelWAL isolates the journaling overhead on the
// manager fast path (no HTTP): compare with ManagerParallel/shards=16.
// Parallelism is forced well above GOMAXPROCS because concurrency is the
// workload group commit exists for: while the flush leader is inside its
// write syscall the runtime keeps running the other request goroutines,
// whose appends coalesce into the next batch — exactly what a loaded
// server sees. A single serial appender cannot share flushes and pays one
// write per event no matter what.
func BenchmarkManagerParallelWAL(b *testing.B) {
	const sessions = 64
	m, ids := benchManagerWAL(b, 16, sessions)
	var next atomic.Uint64
	b.SetParallelism(walParallelism)
	mt := startMem()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7
		item := []QueryItem{{Query: 1}}
		for pb.Next() {
			i++
			if _, err := m.Query(ids[i%len(ids)], item); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	recordBench(b, mt, sessions, 16)
}

// replayBody is a rewindable, allocation-free request body.
type replayBody struct {
	data []byte
	off  int
}

func (rb *replayBody) Read(p []byte) (int, error) {
	if rb.off >= len(rb.data) {
		return 0, io.EOF
	}
	n := copy(p, rb.data[rb.off:])
	rb.off += n
	return n, nil
}

func (rb *replayBody) Close() error { return nil }

// nullResponseWriter discards the response, keeping only what assertions
// need. The point of the HTTP benchmarks is the SERVER's cost per request,
// and httptest's per-request recorder + URL re-parse used to account for
// ~40% of the measured time.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(c int)           { w.code = c }

// benchHTTP drives the handler with single-query POSTs across the pool:
// in-process dispatch of pre-built requests, so the measured cost is mux
// routing + request decode + session query (+ journaling) + response
// encode — the serving stack, not the test harness.
func benchHTTP(b *testing.B, m *SessionManager, ids []string, sessions int, cfg APIConfig) {
	b.Helper()
	api := NewAPI(m, cfg)
	body := []byte(`{"query":1}`)
	var next atomic.Uint64
	mt := startMem()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine pre-built requests, one per session; bodies rewind
		// between iterations.
		reqs := make([]*http.Request, len(ids))
		bodies := make([]*replayBody, len(ids))
		for j, id := range ids {
			bodies[j] = &replayBody{data: body}
			reqs[j] = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/query", bodies[j])
		}
		w := &nullResponseWriter{h: make(http.Header)}
		i := int(next.Add(1)) * 7
		for pb.Next() {
			i++
			j := i % len(ids)
			bodies[j].off = 0
			reqs[j].Body = bodies[j]
			w.code = 0
			api.ServeHTTP(w, reqs[j])
			if w.code != http.StatusOK {
				b.Errorf("status %d", w.code)
				return
			}
		}
	})
	b.StopTimer()
	recordBench(b, mt, sessions, 16)
}
