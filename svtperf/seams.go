package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// seams is the traced run's instrumentation: timing and counting wrappers
// the benchmark puts at every public seam of the stack, from its own
// files, so the program under test is unchanged. Below the edge a seam
// cannot tell which client request a call belongs to, so those layers
// report aggregates; spans carry the request only where the seam knows it.
type seams struct {
	cliConn, srvConn connStat
	serve            stat // API.ServeHTTP
	newInst          stat // factory New
	answer           map[string]*stat
	appends          stat // Append and AppendBatch, group-commit wait included
	appendLat        hist
	syncs            stat // sync phases reported through FlushObserved
	snaps            stat // Rotate to Commit
	spans            *spanLog
}

func newSeams(origin time.Time) *seams {
	return &seams{answer: map[string]*stat{}, spans: newSpanLog(origin, 1<<17)}
}

type stat struct{ n, ns atomic.Int64 }

func (s *stat) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

type connStat struct{ reads, writes, bytesIn, bytesOut atomic.Int64 }

// seamCounts is a point-in-time copy of every seam counter.
type seamCounts struct {
	cliWrites, cliBytes          int64
	srvReads, srvWrites          int64
	serveN, serveNs              int64
	newN, newNs                  int64
	answerN, answerNs            map[string]int64
	appendN, appendNs            int64
	appendLat                    []int64
	syncN, syncNs, snapN, snapNs int64
}

func (s *seams) read() seamCounts {
	c := seamCounts{
		cliWrites: s.cliConn.writes.Load(),
		cliBytes:  s.cliConn.bytesIn.Load() + s.cliConn.bytesOut.Load(),
		srvReads:  s.srvConn.reads.Load(), srvWrites: s.srvConn.writes.Load(),
		serveN: s.serve.n.Load(), serveNs: s.serve.ns.Load(),
		newN: s.newInst.n.Load(), newNs: s.newInst.ns.Load(),
		answerN: map[string]int64{}, answerNs: map[string]int64{},
		appendN: s.appends.n.Load(), appendNs: s.appends.ns.Load(),
		appendLat: s.appendLat.counts(),
		syncN:     s.syncs.n.Load(), syncNs: s.syncs.ns.Load(),
		snapN: s.snaps.n.Load(), snapNs: s.snaps.ns.Load(),
	}
	for name, st := range s.answer {
		c.answerN[name], c.answerNs[name] = st.n.Load(), st.ns.Load()
	}
	return c
}

// sub returns b - a.
func (b seamCounts) sub(a seamCounts) seamCounts {
	d := seamCounts{
		cliWrites: b.cliWrites - a.cliWrites, cliBytes: b.cliBytes - a.cliBytes,
		srvReads: b.srvReads - a.srvReads, srvWrites: b.srvWrites - a.srvWrites,
		serveN: b.serveN - a.serveN, serveNs: b.serveNs - a.serveNs,
		newN: b.newN - a.newN, newNs: b.newNs - a.newNs,
		answerN: map[string]int64{}, answerNs: map[string]int64{},
		appendN: b.appendN - a.appendN, appendNs: b.appendNs - a.appendNs,
		appendLat: subCounts(b.appendLat, a.appendLat),
		syncN:     b.syncN - a.syncN, syncNs: b.syncNs - a.syncNs,
		snapN: b.snapN - a.snapN, snapNs: b.snapNs - a.snapNs,
	}
	for name := range b.answerN {
		d.answerN[name] = b.answerN[name] - a.answerN[name]
		d.answerNs[name] = b.answerNs[name] - a.answerNs[name]
	}
	return d
}

func (c seamCounts) totalAnswers() (n, ns int64) {
	for name := range c.answerN {
		n += c.answerN[name]
		ns += c.answerNs[name]
	}
	return n, ns
}

// ---- spans ----

type span struct {
	Name  string `json:"name"`
	Start int64  `json:"startNs"` // since the phase began
	End   int64  `json:"endNs"`
	Req   string `json:"req,omitempty"`
}

// spanLog keeps the first spans of a traced phase in a fixed buffer, so
// recording never allocates or locks and memory stays bounded; spans
// past capacity are not recorded.
type spanLog struct {
	origin time.Time
	next   atomic.Int64
	buf    []span
}

func newSpanLog(origin time.Time, capacity int) *spanLog {
	return &spanLog{origin: origin, buf: make([]span, capacity)}
}

func (l *spanLog) full() bool { return l.next.Load() >= int64(len(l.buf)) }

func (l *spanLog) add(name string, t0, t1 time.Time, req string) {
	if i := l.next.Add(1) - 1; i < int64(len(l.buf)) {
		l.buf[i] = span{Name: name, Start: int64(t0.Sub(l.origin)), End: int64(t1.Sub(l.origin)), Req: req}
	}
}

// write dumps the recorded spans as JSON lines. Call it only after every
// recording goroutine has stopped.
func (l *spanLog) write(path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	kept := min(l.next.Load(), int64(len(l.buf)))
	for i := int64(0); i < kept; i++ {
		if err := enc.Encode(&l.buf[i]); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return kept, f.Close()
}

// ---- net.Conn: both ends ----

type countedConn struct {
	net.Conn
	st *connStat
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	return n, err
}

type countedListener struct {
	net.Listener
	st *connStat
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, st: l.st}, nil
}

// dial is the client-side seam: client.Options.Dialer and
// http.Transport.DialContext both route through it.
func (s *seams) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, st: &s.cliConn}, nil
}

// ---- http.Handler around server.API ----

type timedHandler struct {
	h http.Handler
	s *seams
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t1 := time.Now()
	t.s.serve.add(t1.Sub(t0))
	if !t.s.spans.full() {
		t.s.spans.add("http.serve", t0, t1, r.Method+" "+r.URL.Path)
	}
}

// ---- mech.Registry ----

// registry re-registers every factory of base with New and the built
// instances' Answer timed, for ManagerConfig.Registry.
func (s *seams) registry(base *mech.Registry) (*mech.Registry, error) {
	reg := mech.NewRegistry()
	for _, f := range base.Factories() {
		answer := new(stat)
		s.answer[f.Name] = answer
		build := f.New
		f.New = func(p mech.Params) (mech.Instance, error) {
			t0 := time.Now()
			inst, err := build(p)
			t1 := time.Now()
			s.newInst.add(t1.Sub(t0))
			s.spans.add("mech.new", t0, t1, "")
			if err != nil {
				return nil, err
			}
			return timedInstance{Instance: inst, answer: answer}, nil
		}
		if err := reg.Register(f); err != nil {
			return nil, fmt.Errorf("re-registering %s: %w", f.Name, err)
		}
	}
	return reg, nil
}

type timedInstance struct {
	mech.Instance
	answer *stat
}

func (t timedInstance) Answer(q mech.Query) (mech.Result, bool, error) {
	t0 := time.Now()
	res, refused, err := t.Instance.Answer(q)
	t.answer.add(time.Since(t0))
	return res, refused, err
}

// ---- store.SessionStore ----

// timedStore times the WAL's journal. It implements exactly the WAL's
// optional interfaces (BatchAppender, Rotator, Healther, Instrumented),
// so the manager's capability probes take the paths they take unwrapped.
type timedStore struct {
	wal *store.WAL
	s   *seams
}

func wrapStore(wal *store.WAL, s *seams) *timedStore { return &timedStore{wal: wal, s: s} }

func (t *timedStore) appended(t0 time.Time) {
	t1 := time.Now()
	d := t1.Sub(t0)
	t.s.appends.add(d)
	t.s.appendLat.add(int64(d))
	if !t.s.spans.full() {
		t.s.spans.add("store.append", t0, t1, "")
	}
}

func (t *timedStore) Append(ev store.Event) error {
	t0 := time.Now()
	err := t.wal.Append(ev)
	t.appended(t0)
	return err
}

func (t *timedStore) AppendBatch(evs []store.Event) error {
	t0 := time.Now()
	err := t.wal.AppendBatch(evs)
	t.appended(t0)
	return err
}

func (t *timedStore) Snapshot(state []store.Event) error {
	t0 := time.Now()
	err := t.wal.Snapshot(state)
	t1 := time.Now()
	t.s.snaps.add(t1.Sub(t0))
	t.s.spans.add("store.snapshot", t0, t1, "")
	return err
}

func (t *timedStore) Rotate() (store.Rotation, error) {
	t0 := time.Now()
	rot, err := t.wal.Rotate()
	if err != nil {
		return nil, err
	}
	return &timedRotation{Rotation: rot, t0: t0, s: t.s}, nil
}

func (t *timedStore) Recover() ([]store.Event, error) { return t.wal.Recover() }
func (t *timedStore) Close() error                    { return t.wal.Close() }
func (t *timedStore) Health() store.Health            { return t.wal.Health() }

// SetInstrumenter tees the manager's instrumenter so the seam sees every
// flush's sync phase too.
func (t *timedStore) SetInstrumenter(in store.Instrumenter) {
	if in != nil {
		in = syncTee{Instrumenter: in, s: t.s}
	}
	t.wal.SetInstrumenter(in)
}

type syncTee struct {
	store.Instrumenter
	s *seams
}

func (t syncTee) FlushObserved(f store.Flush) {
	if f.Sync > 0 {
		t.s.syncs.add(f.Sync)
	}
	t.Instrumenter.FlushObserved(f)
}

type timedRotation struct {
	store.Rotation
	t0 time.Time
	s  *seams
}

func (r *timedRotation) Commit(state []store.Event) error {
	err := r.Rotation.Commit(state)
	t1 := time.Now()
	r.s.snaps.add(t1.Sub(r.t0))
	r.s.spans.add("store.snapshot", r.t0, t1, "")
	return err
}
