// Command svtserve runs the multi-tenant SVT session service: many
// analysts each create an interactive session against any mechanism in
// the mech registry — the corrected SVT of the paper's Algorithm 7, the
// exponential-noise esvt of Liu et al., the Figure 1 private variants, or
// a PMW mediator — and stream threshold queries against it over JSON HTTP.
//
//	svtserve -addr :8080 -shards 32 -ttl 10m
//	svtserve -store wal -wal-dir /var/lib/svtserve -fsync always
//	svtserve -addr :8080 -wire-addr :9090   # binary wire protocol alongside HTTP
//
// Endpoints (see the server package for request/response shapes):
//
//	GET    /v1/mechanisms          registry-driven mechanism discovery
//	POST   /v1/sessions            create a session
//	POST   /v1/sessions/{id}/query single or batched queries
//	GET    /v1/sessions/{id}       status, remaining budget, (ε₁, ε₂, ε₃)
//	DELETE /v1/sessions/{id}       end a session
//	GET    /v1/stats               service-wide counters + store health
//	GET    /v1/traces              recent + slowest-per-route trace summaries
//	GET    /v1/traces/{id}         one trace's full span tree
//	GET    /healthz                liveness (503 + reason when degraded)
//	GET    /metrics                Prometheus text exposition
//
// Persistence: with -store wal every budget-mutating event (session
// create, answered queries, consumed positives, halt, delete, expiry) is
// journaled to an append-only, CRC-checked write-ahead log before the
// response is released, and the full session table — including realized
// (ε₁, ε₂, ε₃) splits — is rebuilt on restart, so a crash can never
// silently refresh spent privacy budget. -fsync picks the durability
// level, -snapshot-interval the journal-compaction cadence, and
// -commit-window optionally stretches group commit so more concurrent
// appends share each flush (mainly useful with -fsync always).
//
// Observability: GET /metrics (on by default, -metrics=false to disable)
// serves Prometheus text exposition covering all three layers — HTTP
// (per-route latency, status classes, in-flight, body bytes, per-tenant
// 429s), manager (per-mechanism query latency, positives, halts, live
// sessions, per-tenant ε spent and near-halt counts, snapshot timing) and
// store (append/sync latency, group-commit batch sizes, journal size,
// recovery). -slow-query-ms logs a structured trace line (trace ID from
// X-Request-Id or generated, session, mechanism, batch size, journal
// wait) for /query requests over the threshold; -log-format picks text or
// json for all structured output. -trace-sample head-samples 1-in-N
// /query requests into in-process span trees (HTTP decode/encode →
// manager answer → journal wait → store gather/write/sync), retained in
// a fixed ring plus a slowest-per-route reservoir and served on GET
// /v1/traces; requests carrying a W3C traceparent or an X-Request-Id are
// always traced, and every /query response echoes both headers. Sampled
// latency observations carry the trace ID as an OpenMetrics exemplar, so
// a /metrics outlier links straight to its trace. -pprof-addr serves
// net/http/pprof on a separate listener, so hot-path regressions are
// profilable in production without exposing profiling endpoints to
// analyst traffic.
//
// Admission: -rate and -max-inflight configure the session manager's one
// admission gate, which both edges share. -rate gives each tenant one
// token bucket across HTTP and wire: every /v1/* request (tenant from the
// X-Tenant header) and every wire frame after the hello (tenant from the
// hello) spends a token, and a rejected request gets a JSON 429 or a
// rate_limited error frame, each with a retry hint. -max-inflight caps
// each edge on its own: HTTP /v1/* requests, and wire queries. /metrics
// and /healthz sit outside /v1/ and are never throttled or shed.
//
// Wire protocol: -wire-addr additionally serves the length-prefixed
// binary protocol of the wire package on its own listener — the same
// sessions, mechanisms, admission gate, telemetry and traces as the HTTP
// API at a fraction of the per-query cost, with pipelined out-of-order
// responses per connection. The client package is the Go SDK. JSON HTTP
// stays on -addr for compatibility.
//
// The process drains in-flight requests on SIGINT or SIGTERM, stops the
// janitor, takes a final snapshot and flushes the store before exiting, so
// no acknowledged event is lost on a graceful shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		wireAddr    = flag.String("wire-addr", "", "binary wire-protocol listen address (e.g. :9090; empty = disabled)")
		shards      = flag.Int("shards", server.DefaultShards, "session-table lock stripes")
		ttl         = flag.Duration("ttl", server.DefaultTTL, "default idle session time-to-live")
		maxTTL      = flag.Duration("max-ttl", server.DefaultMaxTTL, "cap on per-session TTL requests")
		sweep       = flag.Duration("sweep", server.DefaultSweepInterval, "janitor sweep interval")
		maxSessions = flag.Int("max-sessions", 0, "live-session cap (0 = unlimited)")
		maxBody     = flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body cap in bytes")
		maxBatch    = flag.Int("max-batch", server.DefaultMaxBatch, "queries per batch cap")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")

		backend      = flag.String("store", "mem", "session store backend: mem (no persistence) or wal")
		walDir       = flag.String("wal-dir", "", "write-ahead-log directory (required with -store wal)")
		fsync        = flag.String("fsync", "interval", "WAL fsync policy: always, interval or none")
		fsyncInt     = flag.Duration("fsync-interval", store.DefaultSyncInterval, "background fsync cadence for -fsync interval")
		snapInt      = flag.Duration("snapshot-interval", server.DefaultSnapshotInterval, "journal-compaction snapshot cadence (<0 disables)")
		commitWindow = flag.Duration("commit-window", 0, "group-commit gather window: the WAL flush leader waits this long so more concurrent appends share one flush/fsync (0 = flush immediately)")

		rate  = flag.Float64("rate", 0, "per-tenant rate limit in req/s: one budget per tenant across HTTP /v1/* requests and wire frames after the hello (0 = disabled)")
		burst = flag.Float64("burst", 0, "rate-limit burst depth (0 = max(rate, 1))")

		journalDeadlineMS = flag.Int("journal-deadline-ms", 0, "journal-append wait deadline in milliseconds: a store stalled past it fails the request with a retryable 503 \"unavailable\" instead of hanging (0 = wait forever)")
		maxInFlight       = flag.Int("max-inflight", 0, "in-flight request cap per edge (HTTP /v1/* and wire queries); excess load is shed with a retryable \"unavailable\" (0 = unlimited)")
		wireIdleTimeout   = flag.Duration("wire-idle-timeout", 5*time.Minute, "wire connection idle read/write deadline (0 = none)")
		httpReadTimeout   = flag.Duration("http-read-timeout", 30*time.Second, "HTTP server full-request read timeout (0 = none)")
		httpWriteTimeout  = flag.Duration("http-write-timeout", 30*time.Second, "HTTP server response write timeout (0 = none)")
		httpIdleTimeout   = flag.Duration("http-idle-timeout", 2*time.Minute, "HTTP keep-alive connection idle timeout (0 = none)")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")

		metrics     = flag.Bool("metrics", true, "serve Prometheus text exposition on GET /metrics")
		slowQuery   = flag.Int("slow-query-ms", 0, "log a traced line for /query requests at or over this many milliseconds (0 = disabled)")
		logFormat   = flag.String("log-format", "text", "structured log output format: text or json")
		traceSample = flag.Int("trace-sample", trace.DefaultSampleEvery, "trace one /query request in N (1 = every request, 0 = tracing disabled); requests carrying traceparent or X-Request-Id are always traced")
		traceBuffer = flag.Int("trace-buffer", trace.DefaultCapacity, "completed traces retained for GET /v1/traces")
	)
	flag.Parse()
	if err := run(config{
		addr: *addr, wireAddr: *wireAddr, shards: *shards, ttl: *ttl, maxTTL: *maxTTL, sweep: *sweep,
		maxSessions: *maxSessions, maxBody: *maxBody, maxBatch: *maxBatch, drain: *drain,
		backend: *backend, walDir: *walDir, fsync: *fsync, fsyncInt: *fsyncInt, snapInt: *snapInt,
		commitWindow: *commitWindow, rate: *rate, burst: *burst, pprofAddr: *pprofAddr,
		metrics: *metrics, slowQueryMS: *slowQuery, logFormat: *logFormat,
		traceSample: *traceSample, traceBuffer: *traceBuffer,
		journalDeadline: time.Duration(*journalDeadlineMS) * time.Millisecond,
		maxInFlight:     *maxInFlight, wireIdleTimeout: *wireIdleTimeout,
		httpReadTimeout: *httpReadTimeout, httpWriteTimeout: *httpWriteTimeout,
		httpIdleTimeout: *httpIdleTimeout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "svtserve:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags.
type config struct {
	addr, wireAddr                  string
	shards                          int
	ttl, maxTTL, sweep              time.Duration
	maxSessions                     int
	maxBody                         int64
	maxBatch                        int
	drain                           time.Duration
	backend, walDir, fsync          string
	fsyncInt, snapInt, commitWindow time.Duration
	rate, burst                     float64
	pprofAddr                       string
	metrics                         bool
	slowQueryMS                     int
	logFormat                       string
	traceSample, traceBuffer        int
	journalDeadline                 time.Duration
	maxInFlight                     int
	wireIdleTimeout                 time.Duration
	httpReadTimeout                 time.Duration
	httpWriteTimeout                time.Duration
	httpIdleTimeout                 time.Duration
}

// newLogger builds the process's structured logger per -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// buildVersion is the module version stamped by the toolchain, "devel"
// when built from a working tree.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// openStore builds the configured session store; nil means in-memory.
func openStore(cfg config) (store.SessionStore, error) {
	switch cfg.backend {
	case "mem":
		return nil, nil
	case "wal":
		if cfg.walDir == "" {
			return nil, errors.New("-store wal requires -wal-dir")
		}
		policy, err := store.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return nil, err
		}
		return store.NewWAL(store.WALConfig{Dir: cfg.walDir, Sync: policy, SyncInterval: cfg.fsyncInt, CommitWindow: cfg.commitWindow})
	default:
		return nil, fmt.Errorf("unknown -store backend %q (want mem or wal)", cfg.backend)
	}
}

func run(cfg config) error {
	logger, err := newLogger(cfg.logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	if cfg.pprofAddr != "" {
		// Diagnostics sidecar: pprof on its own listener so profiling a
		// production hot-path regression never mixes with (or is rate
		// limited like) analyst traffic. Failure to serve is logged, not
		// fatal — profiling is never worth refusing to serve.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("svtserve: pprof listening on %s", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, mux); err != nil {
				log.Printf("svtserve: pprof server failed: %v", err)
			}
		}()
	}
	st, err := openStore(cfg)
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	if cfg.metrics {
		reg = telemetry.NewRegistry()
		reg.RegisterBuildInfo("svt_build_info",
			"Constant 1, labeled with the svtserve build and Go runtime versions.",
			buildVersion())
	}
	var tracer *trace.Tracer
	if cfg.traceSample > 0 {
		tracer = trace.New(trace.Config{
			SampleEvery: cfg.traceSample,
			Capacity:    cfg.traceBuffer,
		})
	}
	mgr, err := server.Open(server.ManagerConfig{
		Shards:           cfg.shards,
		DefaultTTL:       cfg.ttl,
		MaxTTL:           cfg.maxTTL,
		SweepInterval:    cfg.sweep,
		MaxSessions:      cfg.maxSessions,
		Store:            st,
		SnapshotInterval: cfg.snapInt,
		JournalDeadline:  cfg.journalDeadline,
		MaxInFlight:      cfg.maxInFlight,
		RateLimit:        server.RateLimitConfig{Rate: cfg.rate, Burst: cfg.burst},
		Telemetry:        reg,
		Tracer:           tracer,
	})
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return err
	}
	if st != nil {
		log.Printf("svtserve: wal store at %s (fsync=%s), recovered %d sessions", cfg.walDir, cfg.fsync, mgr.Recovered())
	}
	if cfg.rate != 0 {
		log.Printf("svtserve: per-tenant rate limit %g req/s", cfg.rate)
	}

	api := server.NewAPI(mgr, server.APIConfig{
		MaxBodyBytes:       cfg.maxBody,
		MaxBatch:           cfg.maxBatch,
		Telemetry:          reg,
		SlowQueryThreshold: time.Duration(cfg.slowQueryMS) * time.Millisecond,
		Logger:             logger,
		Tracer:             tracer,
	})
	if tracer != nil {
		log.Printf("svtserve: tracing 1 in %d /query requests, last %d traces on GET /v1/traces", cfg.traceSample, cfg.traceBuffer)
	}
	var wireSrv *server.WireServer
	var wireLn net.Listener
	if cfg.wireAddr != "" {
		wireSrv = server.NewWireServer(mgr, server.WireConfig{
			MaxFrameBytes: int(cfg.maxBody),
			MaxBatch:      cfg.maxBatch,
			IdleTimeout:   cfg.wireIdleTimeout,
			Telemetry:     reg,
			Tracer:        tracer,
		})
		wireLn, err = net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			mgr.Close()
			if st != nil {
				_ = st.Close()
			}
			return fmt.Errorf("wire listener: %w", err)
		}
	}

	// One machine-parseable line with the effective configuration, so an
	// operator reading the log of a crashed or misbehaving instance knows
	// exactly what it was running with — resolved values, not flag text.
	logger.Info("svtserve configuration",
		slog.String("addr", cfg.addr),
		slog.String("wireAddr", cfg.wireAddr),
		slog.String("store", cfg.backend),
		slog.String("fsync", cfg.fsync),
		slog.Duration("fsyncInterval", cfg.fsyncInt),
		slog.Duration("commitWindow", cfg.commitWindow),
		slog.Duration("snapshotInterval", cfg.snapInt),
		slog.Int("shards", mgr.Shards()),
		slog.Duration("ttl", cfg.ttl),
		slog.Int("maxSessions", cfg.maxSessions),
		slog.Float64("rateLimit", cfg.rate),
		slog.Duration("journalDeadline", cfg.journalDeadline),
		slog.Int("maxInFlight", cfg.maxInFlight),
		slog.Duration("wireIdleTimeout", cfg.wireIdleTimeout),
		slog.Bool("metrics", cfg.metrics),
		slog.Int("slowQueryMs", cfg.slowQueryMS),
		slog.Int("traceSample", cfg.traceSample),
		slog.String("version", buildVersion()),
	)

	// Slowloris and stuck-peer protection: bound every phase of an HTTP
	// exchange. Request bodies are small (capped by -max-body) and no
	// endpoint streams, so whole-request/response timeouts are safe.
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.httpReadTimeout,
		WriteTimeout:      cfg.httpWriteTimeout,
		IdleTimeout:       cfg.httpIdleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mechs := make([]string, 0, 8)
	for _, mi := range mgr.Mechanisms() {
		mechs = append(mechs, mi.Name)
	}
	errc := make(chan error, 2)
	go func() {
		log.Printf("svtserve: %d shards, ttl=%s, store=%s, mechanisms=[%s], listening on %s",
			mgr.Shards(), cfg.ttl, cfg.backend, strings.Join(mechs, " "), cfg.addr)
		errc <- srv.ListenAndServe()
	}()
	if wireSrv != nil {
		go func() {
			log.Printf("svtserve: wire protocol listening on %s", cfg.wireAddr)
			if err := wireSrv.Serve(wireLn); !errors.Is(err, server.ErrWireServerClosed) {
				errc <- fmt.Errorf("wire serve: %w", err)
			}
		}()
	}

	select {
	case err := <-errc:
		mgr.Close()
		if st != nil {
			_ = st.Close()
		}
		return err
	case <-ctx.Done():
	}

	// Orderly teardown: drain in-flight HTTP (every response already
	// journaled by the time it is released), then stop the janitor and
	// snapshot loops so nothing appends anymore, take a final compacting
	// snapshot for a fast next boot, and only then flush and close the
	// store. An acknowledged event can no longer be lost past this line.
	// A failed final snapshot does not lose data — the journal remains
	// authoritative — but it IS a store malfunction the operator must see,
	// so it is reported and the process exits non-zero rather than
	// swallowing it into a clean-looking shutdown.
	log.Printf("svtserve: shutting down (draining up to %s)", cfg.drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if wireSrv != nil {
		// Drain the binary edge before the manager stops and the final
		// snapshot is cut: an in-flight wire request's journaled progress
		// must be in the state being snapshotted, and its response frame
		// must flush before the connection closes.
		if werr := wireSrv.Shutdown(shutCtx); werr != nil && shutErr == nil {
			shutErr = fmt.Errorf("wire: %w", werr)
		}
	}
	mgr.Close()
	snapErr := mgr.SnapshotNow()
	if snapErr != nil {
		log.Printf("svtserve: final snapshot failed (journal remains authoritative): %v", snapErr)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
	}
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	if snapErr != nil {
		return fmt.Errorf("final snapshot: %w", snapErr)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
