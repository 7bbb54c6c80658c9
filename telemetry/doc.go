// Package telemetry is the service's zero-dependency metrics layer:
// atomic counters, gauges and fixed-bucket histograms collected into a
// Registry and exposed in Prometheus text exposition format (see
// expose.go). It exists so the serving layers — HTTP, session manager and
// store — can publish latency distributions, privacy-budget gauges and
// WAL/group-commit internals without pulling a client library into the
// module.
//
// # Record-path cost
//
// The record path (Counter.Add, Gauge.Set, Histogram.Observe) is
// allocation-free and lock-free — a handful of atomic operations — so it
// is safe to call from the query hot path; the allocation budget is
// pinned by an AllocsPerRun test. Label lookups (the *Vec types) take a
// per-family mutex, so hot-path callers resolve their label handles once
// at startup and keep the pointer, exactly like the server's
// per-mechanism counter arrays.
//
// Clock reads are the dominant cost of latency instrumentation on hosts
// with a slow clock source, so the package provides a monotonic
// nanosecond clock (Now) that is cheaper than time.Now and supports
// SAMPLED observation: a call site reads the clock on one request in N
// and records the observation with weight N (Histogram.ObserveN), which
// keeps the steady-state overhead of a histogram to roughly
// (clock cost)/N while the bucket counts still estimate the full
// population. Sampled families say so in their help text. What the full
// three-layer instrumentation costs the WAL-backed HTTP serving path is
// measured by BenchmarkHTTPQueryParallelWALTelemetry against its
// uninstrumented twin, and no test bounds it; the README gives the
// latest measurement and the machine it ran on.
//
// # What the server registers
//
// With a Registry wired into server.ManagerConfig.Telemetry and
// server.APIConfig.Telemetry (cmd/svtserve does both unless
// -metrics=false), GET /metrics exposes, per layer:
//
//   - HTTP: svt_http_requests_total{route,class},
//     svt_http_request_duration_seconds{route} (sampled 1-in-8),
//     svt_http_in_flight_requests, request/response byte counters and
//     svt_http_encode_failures_total.
//   - Manager: svt_query_duration_seconds{mechanism} (sampled, journal
//     wait included), svt_queries_total / svt_query_positives_total /
//     svt_session_halts_total by mechanism, session lifecycle events,
//     svt_sessions_live, snapshot duration and failures, the admission
//     gate's svt_shed_total{edge} and svt_http_rate_limited_total{tenant}
//     (rejections on both edges), and the privacy-budget gauges
//     svt_tenant_sessions, svt_tenant_epsilon_spent and
//     svt_tenant_sessions_near_halt.
//   - Store: svt_store_append_duration_seconds (sampled),
//     svt_store_commit_batch_events (group-commit batch sizes),
//     svt_store_sync_duration_seconds, append/flush/sync/failure
//     counters, journal bytes, segment count, mmap mode and
//     svt_store_recovery_duration_seconds, fed through the
//     store.Instrumenter hook.
//
// The telemetry/promtext subpackage is a validating parser for the
// exposition format, used by the tests (and usable by smoke checks) to
// keep /metrics structurally valid without importing a Prometheus
// client.
//
// # Tracing and profiling
//
// Request tracing rides alongside the metrics: the server's query
// pipeline threads a per-request trace ID (the client's X-Request-Id,
// echoed back, or a generated one) through the session manager in a
// server.QueryTrace, and svtserve's -slow-query-ms flag logs one
// structured line — trace ID, session, mechanism, batch size, duration,
// WAL flush wait — for every /query request at or over the threshold. Arming the tracer costs a few extra
// clock reads per request and is off by default. For deeper digging,
// svtserve's -pprof-addr serves net/http/pprof on a separate listener
// so production profiling never mixes with analyst traffic.
package telemetry
