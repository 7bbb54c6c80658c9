package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// stackConfig is what varies between workloads and between the runs of
// one workload. Everything else is cmd/svtserve's default configuration.
type stackConfig struct {
	dir      string
	sync     store.SyncPolicy
	snapshot time.Duration // snapshot interval
	seams    *seams        // nil: untraced
	edges    bool          // false: the manager rung, with no listeners
}

// stack is the serving stack under test, built in-process from the
// public constructors the way cmd/svtserve builds it.
type stack struct {
	cfg      stackConfig
	wal      *store.WAL
	mgr      *server.SessionManager
	httpSrv  *http.Server
	wireSrv  *server.WireServer
	httpAddr string
	wireAddr string
	served   chan error // one value per serving goroutine, when it returns
}

func openStack(cfg stackConfig) (*stack, error) {
	wal, err := store.NewWAL(store.WALConfig{Dir: cfg.dir, Sync: cfg.sync, SyncInterval: store.DefaultSyncInterval})
	if err != nil {
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	var st store.SessionStore = wal
	reg := mech.Default
	if cfg.seams != nil {
		st = wrapStore(wal, cfg.seams)
		if reg, err = cfg.seams.registry(mech.Default); err != nil {
			_ = wal.Close()
			return nil, err
		}
	}
	tel := telemetry.NewRegistry()
	tel.RegisterBuildInfo("svt_build_info", "Constant 1, labeled with the svtserve build and Go runtime versions.", "svtperf")
	tracer := trace.New(trace.Config{SampleEvery: trace.DefaultSampleEvery, Capacity: trace.DefaultCapacity})
	mgr, err := server.Open(server.ManagerConfig{
		Shards:           server.DefaultShards,
		DefaultTTL:       server.DefaultTTL,
		MaxTTL:           server.DefaultMaxTTL,
		SweepInterval:    server.DefaultSweepInterval,
		Store:            st,
		SnapshotInterval: cfg.snapshot,
		Registry:         reg,
		Telemetry:        tel,
		Tracer:           tracer,
	})
	if err != nil {
		_ = wal.Close()
		return nil, fmt.Errorf("opening manager: %w", err)
	}
	s := &stack{cfg: cfg, wal: wal, mgr: mgr}
	if !cfg.edges {
		return s, nil
	}
	api := server.NewAPI(mgr, server.APIConfig{
		MaxBodyBytes: server.DefaultMaxBodyBytes,
		MaxBatch:     server.DefaultMaxBatch,
		Telemetry:    tel,
		Logger:       slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Tracer:       tracer,
	})
	var handler http.Handler = api
	if cfg.seams != nil {
		handler = timedHandler{h: api, s: cfg.seams}
	}
	s.wireSrv = server.NewWireServer(mgr, server.WireConfig{
		MaxFrameBytes: server.DefaultMaxBodyBytes,
		MaxBatch:      server.DefaultMaxBatch,
		IdleTimeout:   5 * time.Minute,
		Telemetry:     tel,
		Tracer:        tracer,
	})
	s.httpSrv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeManager()
		return nil, err
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		s.closeManager()
		return nil, err
	}
	s.httpAddr, s.wireAddr = httpLn.Addr().String(), wireLn.Addr().String()
	if cfg.seams != nil {
		httpLn = countedListener{Listener: httpLn, st: &cfg.seams.srvConn}
		wireLn = countedListener{Listener: wireLn, st: &cfg.seams.srvConn}
	}
	s.served = make(chan error, 2)
	go func() { s.served <- s.httpSrv.Serve(httpLn) }()
	go func() { s.served <- s.wireSrv.Serve(wireLn) }()
	return s, nil
}

// alive reports an edge that stopped serving before shutdown.
func (s *stack) alive() error {
	if s.served == nil {
		return nil
	}
	select {
	case err := <-s.served:
		s.served <- err // keep it for close
		return fmt.Errorf("server stopped serving: %v", err)
	default:
		return nil
	}
}

// close shuts the stack down in cmd/svtserve's order: drain both edges,
// stop the manager, take the final snapshot, close the store.
func (s *stack) close() error {
	var errs []error
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.httpSrv.Shutdown(ctx), s.wireSrv.Shutdown(ctx))
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, server.ErrWireServerClosed) {
				errs = append(errs, err)
			}
		}
	}
	s.mgr.Close()
	errs = append(errs, s.mgr.SnapshotNow(), s.wal.Close())
	return errors.Join(errs...)
}

// closeManager releases a stack whose listeners could not be opened.
func (s *stack) closeManager() {
	s.mgr.Close()
	_ = s.wal.Close() // already failing; the caller reports the first error
}

// ---- the three ways in ----

// callTime brackets the library call itself: the SDK or http.Client call
// (with its response body read) or the manager method, but not the
// benchmark's own request building and checking.
type callTime struct{ start, end time.Time }

// api is one connection's view of the service. Every workload runs
// unchanged through each implementation: the SDK over the wire edge,
// net/http over the HTTP edge, and the manager rung.
type api interface {
	create(p client.CreateParams, ct *callTime) (string, error)
	query(id string, items []client.QueryItem, ct *callTime) (*client.BatchResult, error)
	status(id string, ct *callTime) (*client.SessionStatus, error)
	remove(id string, ct *callTime) error
	close()
}

type sdkAPI struct{ c *client.Client }

func dialSDK(addr string, sm *seams) (sdkAPI, error) {
	var opts client.Options
	if sm != nil {
		opts.Dialer = sm.dial
	}
	c, err := client.Dial(addr, opts)
	return sdkAPI{c}, err
}

func (a sdkAPI) create(p client.CreateParams, ct *callTime) (string, error) {
	ct.start = time.Now()
	cr, err := a.c.Create(p)
	ct.end = time.Now()
	if err != nil {
		return "", err
	}
	return cr.ID, nil
}

func (a sdkAPI) query(id string, items []client.QueryItem, ct *callTime) (*client.BatchResult, error) {
	ct.start = time.Now()
	res, err := a.c.Query(id, items)
	ct.end = time.Now()
	return res, err
}

func (a sdkAPI) status(id string, ct *callTime) (*client.SessionStatus, error) {
	ct.start = time.Now()
	st, err := a.c.Status(id)
	ct.end = time.Now()
	return st, err
}

func (a sdkAPI) remove(id string, ct *callTime) error {
	ct.start = time.Now()
	err := a.c.Delete(id)
	ct.end = time.Now()
	return err
}

func (a sdkAPI) close() { _ = a.c.Close() } // nothing left in flight to report

// httpAPI is one caller's keep-alive connection to the JSON API.
type httpAPI struct {
	c    *http.Client
	base string
}

func newHTTPAPI(addr string, sm *seams) httpAPI {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	if sm != nil {
		tr.DialContext = func(_ context.Context, _, addr string) (net.Conn, error) { return sm.dial(addr) }
	}
	return httpAPI{c: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (a httpAPI) do(method, path string, body any, want int, out any, ct *callTime) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	ct.start = time.Now()
	resp, err := a.c.Do(req)
	if err != nil {
		ct.end = time.Now()
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ct.end = time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (a httpAPI) create(p client.CreateParams, ct *callTime) (string, error) {
	var cr client.CreateResponse
	err := a.do(http.MethodPost, "/v1/sessions", p, http.StatusCreated, &cr, ct)
	return cr.ID, err
}

func (a httpAPI) query(id string, items []client.QueryItem, ct *callTime) (*client.BatchResult, error) {
	var res client.BatchResult
	body := struct {
		Queries []client.QueryItem `json:"queries"`
	}{items}
	if err := a.do(http.MethodPost, "/v1/sessions/"+id+"/query", body, http.StatusOK, &res, ct); err != nil {
		return nil, err
	}
	return &res, nil
}

func (a httpAPI) status(id string, ct *callTime) (*client.SessionStatus, error) {
	var st client.SessionStatus
	if err := a.do(http.MethodGet, "/v1/sessions/"+id, nil, http.StatusOK, &st, ct); err != nil {
		return nil, err
	}
	return &st, nil
}

func (a httpAPI) remove(id string, ct *callTime) error {
	return a.do(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent, nil, ct)
}

func (a httpAPI) close() { a.c.CloseIdleConnections() }

// mgrAPI is the manager rung: the same calls straight into the
// SessionManager, with no edge and no socket.
type mgrAPI struct{ m *server.SessionManager }

func (a mgrAPI) create(p client.CreateParams, ct *callTime) (string, error) {
	sp := server.CreateParams{
		Mechanism: server.Mechanism(p.Mechanism), Epsilon: p.Epsilon, Sensitivity: p.Sensitivity,
		MaxPositives: p.MaxPositives, Threshold: p.Threshold, Monotonic: p.Monotonic,
		AnswerFraction: p.AnswerFraction, Seed: p.Seed, CacheSize: p.CacheSize, TTLSeconds: p.TTLSeconds,
		Histogram: p.Histogram, UpdateFraction: p.UpdateFraction, LearningRate: p.LearningRate,
	}
	ct.start = time.Now()
	s, err := a.m.Create(sp)
	ct.end = time.Now()
	if err != nil {
		return "", err
	}
	return s.ID(), nil
}

func (a mgrAPI) query(id string, items []client.QueryItem, ct *callTime) (*client.BatchResult, error) {
	si := make([]server.QueryItem, len(items))
	for i, it := range items {
		si[i] = server.QueryItem{Query: it.Query, Threshold: it.Threshold, Buckets: it.Buckets}
	}
	ct.start = time.Now()
	res, err := a.m.Query(id, si)
	ct.end = time.Now()
	if err != nil {
		return nil, err
	}
	out := &client.BatchResult{Halted: res.Halted, Remaining: res.Remaining, Results: make([]client.QueryResult, len(res.Results))}
	for i, r := range res.Results {
		out.Results[i] = client.QueryResult{Above: r.Above, Numeric: r.Numeric, Value: r.Value, FromSynthetic: r.FromSynthetic, Exhausted: r.Exhausted}
	}
	return out, nil
}

func (a mgrAPI) status(id string, ct *callTime) (*client.SessionStatus, error) {
	ct.start = time.Now()
	s, ok := a.m.Get(id)
	var st server.SessionStatus
	if ok {
		st = s.Status()
	}
	ct.end = time.Now()
	if !ok {
		return nil, server.ErrSessionNotFound
	}
	return clientStatus(st), nil
}

func (a mgrAPI) remove(id string, ct *callTime) error {
	ct.start = time.Now()
	ok := a.m.Delete(id)
	ct.end = time.Now()
	if !ok {
		return server.ErrSessionNotFound
	}
	return nil
}

func (mgrAPI) close() {}

func clientStatus(st server.SessionStatus) *client.SessionStatus {
	return &client.SessionStatus{
		ID: st.ID, Mechanism: string(st.Mechanism), Answered: st.Answered, Positives: st.Positives,
		Remaining: st.Remaining, Halted: st.Halted,
		Budget:    client.Budget{Eps1: st.Budget.Eps1, Eps2: st.Budget.Eps2, Eps3: st.Budget.Eps3, Total: st.Budget.Total},
		CreatedAt: st.CreatedAt, ExpiresAt: st.ExpiresAt,
	}
}
