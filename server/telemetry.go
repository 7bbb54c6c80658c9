package server

// Telemetry integration: the manager-, store- and HTTP-layer metric
// families registered on a telemetry.Registry, and the sampled hot-path
// observation helpers. Everything here is nil-gated — a manager or API
// built without a Registry carries zero instrumentation overhead — and
// the record path stays allocation-free (label handles are resolved once
// at registration; see TestQueryHotPathAllocs, which pins the pooled
// query path with telemetry enabled).
//
// Latency histograms on the hot path are SAMPLED 1-in-querySamplePeriod:
// the clock is read only for sampled requests and the observation is
// recorded with the period as its weight, so histogram-derived rates
// still estimate the full population while the steady-state overhead is
// two atomic ops per request plus a fraction of a clock read. The cheap
// families (counters, gauges) are exact.

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// querySamplePeriod is the 1-in-N sampling rate for the manager's and the
// HTTP layer's latency histograms. Power of two so the tick check is a
// mask.
const querySamplePeriod = 8

// nearHaltMargin is the remaining-positives threshold under which a
// session counts as "near halt": max(1, c/10) for cutoff c.
func nearHaltMargin(maxPositives int) int {
	m := maxPositives / 10
	if m < 1 {
		m = 1
	}
	return m
}

// managerTelemetry is the manager layer's stored metrics; collectors
// registered alongside it read live manager state at scrape time.
type managerTelemetry struct {
	queryTick atomic.Uint64
	// queryLatency is indexed by the manager's frozen mechIdx, resolved
	// once so the sampled hot path does no label lookup.
	queryLatency     []*telemetry.Histogram
	snapshotDuration *telemetry.Histogram
}

// tenantStats is one tenant's aggregate over the live session table.
type tenantStats struct {
	sessions int
	nearHalt int
	spent    float64
}

// epsilonSpent estimates a session's consumed privacy budget from its
// realized (ε₁, ε₂, ε₃) split: ε₁ is spent at creation (threshold
// noise), ε₂ and ε₃ amortize over the c positive outcomes. A halted
// session has spent its whole budget by definition.
func epsilonSpent(b Budget, positives, maxPositives int, halted bool) float64 {
	if halted {
		return b.Total
	}
	if maxPositives <= 0 {
		return b.Eps1
	}
	frac := float64(positives) / float64(maxPositives)
	return b.Eps1 + (b.Eps2+b.Eps3)*frac
}

// tenantAgg walks the live session table aggregating per tenant. Lock
// order (shard read lock, then each session's mutex) matches every other
// session walk (collectRecords), so scrapes cannot deadlock against the
// data path; the walk is scrape-time-only cost. Label cardinality is
// bounded: past maxTenantSeries distinct tenants, further tenants
// aggregate into the OtherTenant series, so a tenant-ID spray cannot
// balloon the scrape body or the heap behind it.
func (m *SessionManager) tenantAgg() map[string]*tenantStats {
	agg := make(map[string]*tenantStats)
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			tenant := s.params.Tenant
			if tenant == "" {
				tenant = "default"
			}
			st := agg[tenant]
			if st == nil && len(agg) >= m.maxTenantSeries {
				tenant = OtherTenant
				st = agg[tenant]
			}
			if st == nil {
				st = &tenantStats{}
				agg[tenant] = st
			}
			s.mu.Lock()
			halted := s.inst.Halted()
			remaining := s.inst.Remaining()
			positives := s.positives
			budget := s.budget
			maxPos := s.params.MaxPositives
			s.mu.Unlock()
			st.sessions++
			st.spent += epsilonSpent(budget, positives, maxPos, halted)
			if !halted && remaining <= nearHaltMargin(maxPos) {
				st.nearHalt++
			}
		}
		sh.mu.RUnlock()
	}
	return agg
}

// registerManagerTelemetry registers the manager and store families on
// reg and returns the stored-metric handles the hot paths keep. Called
// once from Open, before the manager serves traffic.
func (m *SessionManager) registerManagerTelemetry(reg *telemetry.Registry) *managerTelemetry {
	t := &managerTelemetry{
		queryLatency: make([]*telemetry.Histogram, len(m.mechNames)),
	}
	lat := reg.NewHistogramVec("svt_query_duration_seconds",
		"Manager-level query batch latency by mechanism, journaling included (sampled 1-in-8).",
		telemetry.LatencyBuckets)
	for i, name := range m.mechNames {
		t.queryLatency[i] = lat.With(telemetry.Label("mechanism", string(name)))
	}
	t.snapshotDuration = reg.NewHistogram("svt_snapshot_duration_seconds",
		"Journal-compaction snapshot duration (rotate, collect, encode and persist).",
		telemetry.LatencyBuckets)

	reg.NewCollector("svt_sessions_live", "Live sessions (expired-but-unswept included).", "gauge",
		func(emit func(string, float64)) { emit("", float64(m.Len())) })
	reg.NewCollector("svt_shed_total",
		"Requests load-shed at an in-flight cap, by serving edge.", "counter",
		func(emit func(string, float64)) {
			emit(telemetry.Label("edge", "http"), float64(m.shedHTTP.Load()))
			emit(telemetry.Label("edge", "wire"), float64(m.shedWire.Load()))
		})
	reg.NewCollector("svt_journal_deadline_exceeded_total",
		"Requests withheld because their journal append was abandoned at ManagerConfig.JournalDeadline (each failed retryable; the append itself was never acknowledged).", "counter",
		func(emit func(string, float64)) { emit("", float64(m.deadlineExceeded.Load())) })
	reg.NewCollector("svt_sessions_recovered", "Sessions rebuilt from the store at open.", "gauge",
		func(emit func(string, float64)) { emit("", float64(m.recoveredSessions)) })
	reg.NewCollector("svt_session_events_total", "Session lifecycle events by type.", "counter",
		func(emit func(string, float64)) {
			var created, deleted, expired uint64
			for _, sh := range m.shards {
				created += sh.created.Load()
				deleted += sh.deleted.Load()
				expired += sh.expired.Load()
			}
			emit(telemetry.Label("event", "created"), float64(created))
			emit(telemetry.Label("event", "deleted"), float64(deleted))
			emit(telemetry.Label("event", "expired"), float64(expired))
		})
	perMech := func(counters func(sh *shard) []atomic.Uint64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			for i, name := range m.mechNames {
				var n uint64
				for _, sh := range m.shards {
					n += counters(sh)[i].Load()
				}
				emit(telemetry.Label("mechanism", string(name)), float64(n))
			}
		}
	}
	reg.NewCollector("svt_queries_total", "Answered queries by mechanism.", "counter",
		perMech(func(sh *shard) []atomic.Uint64 { return sh.queries }))
	reg.NewCollector("svt_query_positives_total", "Positive (budget-consuming) outcomes by mechanism.", "counter",
		perMech(func(sh *shard) []atomic.Uint64 { return sh.positives }))
	reg.NewCollector("svt_session_halts_total", "Sessions that transitioned to halted, by mechanism.", "counter",
		perMech(func(sh *shard) []atomic.Uint64 { return sh.halts }))
	reg.NewCollector("svt_snapshot_failures_total", "Failed journal-compaction snapshots.", "counter",
		func(emit func(string, float64)) { emit("", float64(m.snapFailures.Load())) })
	reg.NewCollector("svt_snapshot_age_seconds",
		"Seconds since the last successful journal-compaction snapshot; absent until one succeeds. A growing value with traffic flowing means the snapshot loop is wedged.", "gauge",
		func(emit func(string, float64)) {
			if age, ok := m.SnapshotAge(); ok {
				emit("", age.Seconds())
			}
		})

	reg.NewCollector("svt_tenant_sessions", "Live sessions by tenant.", "gauge",
		func(emit func(string, float64)) {
			for tenant, st := range m.tenantAgg() {
				emit(telemetry.Label("tenant", tenant), float64(st.sessions))
			}
		})
	reg.NewCollector("svt_tenant_epsilon_spent", "Estimated consumed privacy budget summed over the tenant's live sessions: ε₁ up front plus (ε₂+ε₃) amortized over consumed positives; a halted session counts its full budget.", "gauge",
		func(emit func(string, float64)) {
			for tenant, st := range m.tenantAgg() {
				emit(telemetry.Label("tenant", tenant), st.spent)
			}
		})
	reg.NewCollector("svt_tenant_sessions_near_halt", "Live unhalted sessions within max(1, c/10) positives of halting, by tenant.", "gauge",
		func(emit func(string, float64)) {
			for tenant, st := range m.tenantAgg() {
				emit(telemetry.Label("tenant", tenant), float64(st.nearHalt))
			}
		})

	if m.store != nil {
		registerStoreHealth(reg, m.store)
		if m.storeInst != nil {
			m.storeInst.register(reg)
		}
	}
	return t
}

// sampleQueryStart is the manager hot path's sampling decision: true for
// one query in querySamplePeriod, reading the clock only then.
func (t *managerTelemetry) sampleQueryStart() (int64, bool) {
	if t == nil || t.queryTick.Add(1)&(querySamplePeriod-1) != 0 {
		return 0, false
	}
	return telemetry.Now(), true
}

// observeSnapshot records a successful snapshot's duration; nil-safe and
// unsampled (snapshots are rare and slow, every one is worth a bucket).
func (t *managerTelemetry) observeSnapshot(start int64) {
	if t == nil {
		return
	}
	t.snapshotDuration.Observe(telemetry.Seconds(telemetry.Now() - start))
}

// storeTelemetry adapts store.Instrumenter onto telemetry histograms and
// keeps the most recent flush's phase breakdown for the tracing layer.
// The histogram fields are nil when the manager runs with tracing but no
// telemetry registry; every method nil-gates them, so one instrumenter
// serves both subsystems.
type storeTelemetry struct {
	appendLatency *telemetry.Histogram
	batchEvents   *telemetry.Histogram
	syncLatency   *telemetry.Histogram
	recoveryNanos atomic.Int64

	// Last foreground (batch-carrying) flush's phases, in nanoseconds.
	// A traced request reads them right after its journal append returns:
	// under SyncAlways the append waited on exactly that flush, so the
	// phases are its own; under relaxed sync policies they are the most
	// recent flush's — an approximation, clamped into the journal span.
	lastGather atomic.Int64
	lastWrite  atomic.Int64
	lastSync   atomic.Int64
}

var _ store.Instrumenter = (*storeTelemetry)(nil)

func (t *storeTelemetry) AppendSampled(d time.Duration, weight uint64) {
	if t.appendLatency != nil {
		t.appendLatency.ObserveN(d.Seconds(), weight)
	}
}

func (t *storeTelemetry) FlushObserved(f store.Flush) {
	if f.Events > 0 {
		if t.batchEvents != nil {
			t.batchEvents.Observe(float64(f.Events))
		}
		t.lastGather.Store(int64(f.Gather))
		t.lastWrite.Store(int64(f.Write))
		t.lastSync.Store(int64(f.Sync))
	}
	if f.Sync > 0 && t.syncLatency != nil {
		t.syncLatency.Observe(f.Sync.Seconds())
	}
}

func (t *storeTelemetry) RecoveryObserved(d time.Duration, events int) {
	t.recoveryNanos.Store(int64(d))
}

// attachFlushPhases hangs the last flush's gather/write/sync breakdown
// under a just-ended journal-wait span. The phases are anchored backwards
// from the span's end — sync finished when the append returned, write
// preceded sync, gather preceded write — and AttachChild clamps each
// child into the parent's bounds, so rendered durations always nest even
// when the flush the atomics describe is not exactly this request's own.
func (t *storeTelemetry) attachFlushPhases(js *trace.Span) {
	if t == nil || js == nil {
		return
	}
	_, end := js.Bounds()
	if end == 0 {
		return
	}
	gather, write, sync := t.lastGather.Load(), t.lastWrite.Load(), t.lastSync.Load()
	syncStart := end - sync
	writeStart := syncStart - write
	gatherStart := writeStart - gather
	if gather > 0 {
		js.AttachChild("store.gather", gatherStart, writeStart)
	}
	if write > 0 {
		js.AttachChild("store.write", writeStart, syncStart)
	}
	if sync > 0 {
		js.AttachChild("store.sync", syncStart, end)
	}
}

// register creates the instrumenter's histogram families on reg; without
// a registry the instrumenter still runs, feeding only the trace phases.
func (t *storeTelemetry) register(reg *telemetry.Registry) {
	t.appendLatency = reg.NewHistogram("svt_store_append_duration_seconds",
		"Caller-observed append latency, enqueue through durability acknowledgement (sampled 1-in-8).",
		telemetry.LatencyBuckets)
	t.batchEvents = reg.NewHistogram("svt_store_commit_batch_events",
		"Events per group-commit flush batch.",
		telemetry.CountBuckets)
	t.syncLatency = reg.NewHistogram("svt_store_sync_duration_seconds",
		"Durability barrier (fsync/msync) latency per flush.",
		telemetry.LatencyBuckets)
	reg.NewCollector("svt_store_recovery_duration_seconds",
		"Open-time recovery scan duration.", "gauge",
		func(emit func(string, float64)) {
			emit("", float64(t.recoveryNanos.Load())*1e-9)
		})
}

// registerStoreHealth registers the store layer's health counters,
// mirrored as collectors off the store's Health snapshot.
func registerStoreHealth(reg *telemetry.Registry, st store.SessionStore) {
	if h, ok := st.(store.Healther); ok {
		counter := func(name, help string, v func(store.Health) float64) {
			reg.NewCollector(name, help, "counter",
				func(emit func(string, float64)) { emit("", v(h.Health())) })
		}
		gauge := func(name, help string, v func(store.Health) float64) {
			reg.NewCollector(name, help, "gauge",
				func(emit func(string, float64)) { emit("", v(h.Health())) })
		}
		b2f := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		counter("svt_store_appends_total", "Successful journal appends.",
			func(h store.Health) float64 { return float64(h.Appends) })
		counter("svt_store_appended_bytes_total", "Record bytes journaled.",
			func(h store.Health) float64 { return float64(h.AppendedBytes) })
		counter("svt_store_flushes_total", "Physical journal flushes; appends/flushes is the realized group-commit batching ratio.",
			func(h store.Health) float64 { return float64(h.Flushes) })
		counter("svt_store_syncs_total", "Durability barriers (fsync/msync).",
			func(h store.Health) float64 { return float64(h.Syncs) })
		counter("svt_store_failures_total", "Append, snapshot and sync failures.",
			func(h store.Health) float64 { return float64(h.Failures) })
		counter("svt_store_snapshots_total", "Published store snapshots.",
			func(h store.Health) float64 { return float64(h.Snapshots) })
		gauge("svt_store_journal_bytes", "Active journal segment size in bytes.",
			func(h store.Health) float64 { return float64(h.JournalBytes) })
		gauge("svt_store_segments", "Live journal segments; persistent growth means snapshots are failing.",
			func(h store.Health) float64 { return float64(h.Segments) })
		gauge("svt_store_mmap", "1 when the journal appends through a memory-mapped segment, 0 in write() mode.",
			func(h store.Health) float64 { return b2f(h.Mmap) })
		gauge("svt_store_broken", "1 when the store is in a failed state and refusing writes.",
			func(h store.Health) float64 { return b2f(h.Broken) })
		gauge("svt_store_recovered_events", "Events replayed by open-time recovery.",
			func(h store.Health) float64 { return float64(h.RecoveredEvents) })
	}
}

// apiTelemetry is the HTTP layer's stored metrics. Route handles are
// resolved per registered mux pattern at construction, so the per-request
// work after dispatch is one map lookup plus a few atomics.
type apiTelemetry struct {
	tick          atomic.Uint64
	inFlight      *telemetry.Gauge
	requestBytes  *telemetry.Counter
	responseBytes *telemetry.Counter
	routes        map[string]*routeTelemetry
	fallback      *routeTelemetry
}

// routeTelemetry is one route's per-status-class counters and latency
// histogram. classes is indexed by status/100 (index 0 collects anything
// outside 100–599).
type routeTelemetry struct {
	classes [6]*telemetry.Counter
	latency *telemetry.Histogram
}

// statusClasses are the label values for routeTelemetry.classes.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// registerAPITelemetry registers the HTTP families for the given route
// patterns. The catch-all "/" pattern is labeled "other" so unmatched
// paths do not mint a route label per probe URL.
func (a *API) registerAPITelemetry(reg *telemetry.Registry, patterns []string) *apiTelemetry {
	t := &apiTelemetry{routes: make(map[string]*routeTelemetry, len(patterns))}
	requests := reg.NewCounterVec("svt_http_requests_total",
		"HTTP requests by route and status class.")
	latency := reg.NewHistogramVec("svt_http_request_duration_seconds",
		"HTTP request latency by route (sampled 1-in-8).", telemetry.LatencyBuckets)
	for _, pat := range patterns {
		label := pat
		if label == "/" {
			label = "other"
		}
		rt := &routeTelemetry{latency: latency.With(telemetry.Label("route", label))}
		for class, name := range statusClasses {
			rt.classes[class] = requests.With(telemetry.Labels(
				telemetry.Label("route", label), telemetry.Label("class", name)))
		}
		t.routes[pat] = rt
		if label == "other" {
			t.fallback = rt
		}
	}
	if t.fallback == nil {
		t.fallback = t.routes[patterns[0]]
	}
	t.inFlight = reg.NewGauge("svt_http_in_flight_requests",
		"Requests currently being served.")
	t.requestBytes = reg.NewCounter("svt_http_request_bytes_total",
		"Request body bytes received (per Content-Length).")
	t.responseBytes = reg.NewCounter("svt_http_response_bytes_total",
		"Response body bytes written.")
	reg.NewCollector("svt_http_encode_failures_total",
		"Responses whose JSON encode or write failed after the status header was out.", "counter",
		func(emit func(string, float64)) { emit("", float64(a.encodeFailures.Load())) })
	reg.NewCollector("svt_http_rate_limited_total",
		"Requests rejected by the per-tenant rate limiter, by tenant.", "counter",
		func(emit func(string, float64)) {
			rl := a.limiter.Load()
			if rl == nil {
				return
			}
			for tenant, n := range rl.RejectedByTenant() {
				emit(telemetry.Label("tenant", tenant), float64(n))
			}
		})
	return t
}

// statusWriter captures the response status and body size. Pooled so the
// instrumented path allocates nothing in steady state; the inner writer
// is dropped before pooling so nothing request-scoped is retained.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	// exemplar is the request's trace ID when the request was
	// trace-sampled (set by handleQuery); a sampled latency observation
	// then carries it as an OpenMetrics exemplar.
	exemplar string
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// observe records one completed request; called by ServeHTTP after the
// mux returns. pattern is r.Pattern, set in place by the mux dispatch;
// exemplar is the trace ID of a trace-sampled request ("" otherwise),
// attached to the latency observation so /metrics links to /v1/traces.
func (t *apiTelemetry) observe(pattern string, status int, reqBytes, respBytes int64, start int64, sampled bool, exemplar string) {
	rt := t.routes[pattern]
	if rt == nil {
		rt = t.fallback
	}
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	rt.classes[class].Inc()
	if sampled {
		rt.latency.ObserveNExemplar(telemetry.Seconds(telemetry.Now()-start), querySamplePeriod, exemplar)
	}
	if reqBytes > 0 {
		t.requestBytes.Add(uint64(reqBytes))
	}
	if respBytes > 0 {
		t.responseBytes.Add(uint64(respBytes))
	}
}
