package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dpgo/svt/store"
)

// postBody sends body to the session's /query route through ServeHTTP
// and returns the status and the raw response body.
func postBody(api *API, id, body string) (int, string) {
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/query", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestQueryBodyFallbackParity sends bodies outside the canonical shape
// through a real handler, each to a fresh seeded session, and pins the
// status and exact response the server gave before the hand-rolled
// decoder existed. A tiny sensitivity makes every answer deterministic,
// so a misread body changes the response: query 1 is above the session
// threshold of 0.5 and query 0 is below it.
func TestQueryBodyFallbackParity(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	api := NewAPI(m, APIConfig{MaxBatch: 4})
	const (
		above = `{"results":[{"above":true}],"halted":false,"remaining":2}` + "\n"
		below = `{"results":[{"above":false}],"halted":false,"remaining":3}` + "\n"
	)
	badRequest := func(msg string) string {
		return `{"error":{"code":"bad_request","message":"` + msg + `"}}` + "\n"
	}
	cases := []struct {
		body   string
		status int
		want   string
	}{
		// Keys json.Unmarshal matches case-insensitively or after unescaping.
		{`{"Query":1}`, 200, above},
		{`{"QUERIES":[{"query":1}]}`, 200, above},
		{`{"qu\u0065ry":1}`, 200, above},
		// A repeated key: the last one wins.
		{`{"query":1,"query":2}`, 200, above},
		{`{"query":1,"query":0}`, 200, below},
		{`{"query":0,"query":1}`, 200, above},
		// null, and a member json.Unmarshal ignores.
		{`{"query":1,"threshold":null}`, 200, above},
		{`{"query":1,"note":"x"}`, 200, above},
		// One item over the cap reports the count.
		{`{"queries":[{"query":1},{"query":1},{"query":1},{"query":1},{"query":1}]}`, 413,
			`{"error":{"code":"too_large","message":"batch of 5 exceeds the cap of 4"}}` + "\n"},
		// Values json.Unmarshal rejects, with its own message.
		{`{"buckets":[1.5]}`, 400, badRequest("bad request body: json: cannot unmarshal number 1.5 into Go struct field queryRequest.QueryItem.buckets of type int")},
		{`{"query":1e400}`, 400, badRequest("bad request body: json: cannot unmarshal number 1e400 into Go struct field queryRequest.QueryItem.query of type float64")},
		{`{"query":"1"}`, 400, badRequest("bad request body: json: cannot unmarshal string into Go struct field queryRequest.QueryItem.query of type float64")},
		{`{"queries":[]}`, 400, badRequest("empty query batch")},
		{`{"query":1}}`, 400, badRequest("bad request body: invalid character '}' after top-level value")},
	}
	for _, c := range cases {
		s, err := m.Create(CreateParams{
			Mechanism: MechSparse, Epsilon: 1, Sensitivity: 1e-9, MaxPositives: 3, Threshold: ptr(0.5), Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		status, got := postBody(api, s.ID(), c.body)
		if status != c.status || got != c.want {
			t.Errorf("%s:\n got  %d %s want %d %s", c.body, status, got, c.status, c.want)
		}
	}
}

// FuzzDecodeQueryBody checks the hand-rolled decoder against
// encoding/json: every body it accepts must decode with json.Unmarshal
// to the same items. A nil and an empty bucket list count as equal,
// since every reader uses len.
func FuzzDecodeQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"query":1}`,
		`{"query":-2.5e-3,"threshold":1E+2,"buckets":[0,-0,17]}`,
		`{"queries":[{"query":1},{"buckets":[3,1,2],"threshold":0.5}],"query":9}`,
		`{"Query":1}`,
		`{"qu\u0065ry":1}`,
		`{"query":1,"query":2}`,
		`{"queries":[{"query":1,"query":2}]}`,
		`{"query":null}`,
		`{"threshold":null}`,
		`{"buckets":null}`,
		`{"queries":null}`,
		`{"queries":[null]}`,
		`{"query":1e400}`,
		`{"query":01}`,
		`{"query":-0}`,
		`{"buckets":[1.5]}`,
		`{"buckets":[1234567890123456789]}`,
		`{"buckets":[123456789012345678]}`,
		`{"query":"1"}`,
		`{"query":true}`,
		`{}`,
		`{"queries":[]}`,
		`{"queries":[{}]}`,
		`{"queries":[{"queries":[]}]}`,
		`{"query":1}x`,
		`{"query":1}}`,
		`{"query":1}]`,
		"\xef\xbb\xbf{\"query\":1}",
		" \t\r\n{ \t\r\n\"query\" \t\r\n: \t\r\n1 \t\r\n} \t\r\n",
		"",
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	const maxBatch = 4
	f.Fuzz(func(t *testing.T, body []byte) {
		// Warm the arenas with another body first, so the check also
		// covers reuse of a pooled scratch.
		var sc queryScratch
		sc.decodeCanonical(pmwBatchBody(3, 5), maxBatch)
		got, ok := sc.decodeCanonical(body, maxBatch)
		if !ok {
			return
		}
		if len(got) > maxBatch {
			t.Fatalf("accepted %d items over the cap of %d", len(got), maxBatch)
		}
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("decoder accepted %q, json.Unmarshal rejects it: %v", body, err)
		}
		want := req.Queries
		if want == nil {
			want = []QueryItem{req.QueryItem}
		}
		if !sameItems(got, want) {
			t.Fatalf("%q decodes to\n %s\njson.Unmarshal gives\n %s", body, fmtItems(got), fmtItems(want))
		}
	})
}

// sameItems compares decoded items field by field, floats by their bits.
func sameItems(a, b []QueryItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if math.Float64bits(x.Query) != math.Float64bits(y.Query) ||
			(x.Threshold == nil) != (y.Threshold == nil) ||
			x.Threshold != nil && math.Float64bits(*x.Threshold) != math.Float64bits(*y.Threshold) ||
			len(x.Buckets) != len(y.Buckets) {
			return false
		}
		for j := range x.Buckets {
			if x.Buckets[j] != y.Buckets[j] {
				return false
			}
		}
	}
	return true
}

func fmtItems(items []QueryItem) string {
	var b strings.Builder
	for _, it := range items {
		th := "nil"
		if it.Threshold != nil {
			th = fmtFloat(*it.Threshold)
		}
		b.WriteString("{query " + fmtFloat(it.Query) + " threshold " + th + " buckets ")
		raw, _ := json.Marshal(it.Buckets)
		b.Write(raw)
		b.WriteString("} ")
	}
	return b.String()
}

func fmtFloat(f float64) string { return string(appendJSONFloat(nil, f)) }

// TestQueryBodyDecodesCanonicalShapes checks the hand-rolled decoder on
// the shapes clients send and on the arena reuse between requests.
func TestQueryBodyDecodesCanonicalShapes(t *testing.T) {
	var sc queryScratch
	for _, body := range []string{
		`{"query":1}`,
		`{"query":5,"threshold":-1e12}`,
		`{"buckets":[0,1,2]}`,
		`{"queries":[{"query":500},{"query":120,"threshold":130}]}`,
		`{"queries":[{"buckets":[4]},{"buckets":[0,1,2,3,4,5]},{"buckets":[]}]}`,
		string(pmwBatchBody(64, 32)),
		`{"query":1}`,
	} {
		got, ok := sc.decodeCanonical([]byte(body), DefaultMaxBatch)
		if !ok {
			t.Fatalf("%s: not taken by the decoder", body)
		}
		var req queryRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want := req.Queries
		if want == nil {
			want = []QueryItem{req.QueryItem}
		}
		if !sameItems(got, want) {
			t.Fatalf("%s decodes to %s, want %s", body, fmtItems(got), fmtItems(want))
		}
	}
}

// TestCreateRejectsTrailingData: anything but whitespace after a create
// body is refused, a stray closing delimiter included.
func TestCreateRejectsTrailingData(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	api := NewAPI(m, APIConfig{MaxBodyBytes: 256})
	const body = `{"mechanism":"sparse","epsilon":1,"maxPositives":10}`
	cases := []struct {
		suffix string
		status int
		code   string
	}{
		{"}", 400, CodeBadRequest},
		{"]", 400, CodeBadRequest},
		{" x", 400, CodeBadRequest},
		{" {}", 400, CodeBadRequest},
		{"   ", 201, ""},
		{"\n", 201, ""},
		{strings.Repeat(" ", 256), 413, CodeTooLarge},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body+c.suffix)))
		if rec.Code != c.status {
			t.Errorf("suffix %q: status %d, want %d (%s)", c.suffix, rec.Code, c.status, rec.Body.String())
			continue
		}
		if c.code == "" {
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != c.code {
			t.Errorf("suffix %q: code %q, want %q", c.suffix, eb.Error.Code, c.code)
		}
		if c.code == CodeBadRequest && eb.Error.Message != "trailing data after JSON body" {
			t.Errorf("suffix %q: message %q", c.suffix, eb.Error.Message)
		}
	}
}

// TestPMWBucketErrorsThroughHTTP: a served pmw batch with a bad bucket is
// refused whole, with the message it has always had, and leaves the
// engine's bucket check clean for the next query.
func TestPMWBucketErrorsThroughHTTP(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	api := NewAPI(m, APIConfig{})
	s, err := m.Create(CreateParams{
		Mechanism: MechPMW, Epsilon: 2, MaxPositives: 5, Threshold: ptr(50),
		Histogram: []float64{100, 100, 100, 100, 500, 100}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ body, msg string }{
		{`{"queries":[{"buckets":[0,1]},{"buckets":[2,6]}]}`, "server: query 1: mech: bucket 6 out of range [0,6)"},
		{`{"buckets":[-1]}`, "server: query 0: mech: bucket -1 out of range [0,6)"},
		{`{"queries":[{"buckets":[0,1]},{"buckets":[3,4,3]}]}`, "server: query 1: mech: duplicate bucket 3 in query"},
	} {
		status, got := postBody(api, s.ID(), c.body)
		want := `{"error":{"code":"bad_request","message":"` + c.msg + `"}}` + "\n"
		if status != http.StatusBadRequest || got != want {
			t.Errorf("%s:\n got  %d %s want 400 %s", c.body, status, got, want)
		}
	}
	if status, got := postBody(api, s.ID(), `{"buckets":[3,4]}`); status != http.StatusOK {
		t.Fatalf("valid query after refused ones: %d %s", status, got)
	}
	if st := s.Status(); st.Answered != 1 {
		t.Fatalf("answered %d, want 1: a refused batch answered nothing", st.Answered)
	}
}

// TestPMWJournalUnchangedByBucketCheck pins a seeded pmw session's
// journal and its answers across a restart to the values recorded before
// the engine kept a bucket bitset: the bitset is scratch, never state.
// Refused batches in the script must journal and draw nothing.
func TestPMWJournalUnchangedByBucketCheck(t *testing.T) {
	const (
		wantJournal = "84b73077c2200fad3b36b95f1421bc4333b25b7e3d6156ead09d25492adca558"
		wantAnswers = "efdb3c65f0967cfef063865e01dfe900424de27eec88d3dcc95180649a2e808b"
	)
	script := replayScript(MechPMW, 24)
	bad := [][]QueryItem{{{Buckets: []int{1, 1}}}, {{Buckets: []int{0}}, {Buckets: []int{6}}}}
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	sess := mustCreate(t, m1, replayParams(MechPMW, 7))
	run := func(m *SessionManager, batches [][]QueryItem) []QueryResult {
		var out []QueryResult
		for i, batch := range batches {
			if _, err := m.Query(sess.ID(), bad[i%2]); err == nil {
				t.Fatal("batch with a bad bucket answered")
			}
			out = append(out, mustQuery(t, m, sess.ID(), batch).Results...)
		}
		return out
	}
	answers := run(m1, script[:10])
	m1.Close() // crash: no final snapshot
	m2, _ := openWALManager(t, dir)
	answers = append(answers, run(m2, script[10:])...)
	m2.Close()

	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	events, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
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
	if got := hex.EncodeToString(jsum[:]); got != wantJournal {
		t.Errorf("progress journal hash %s, want %s", got, wantJournal)
	}
	if got := hex.EncodeToString(asum[:]); got != wantAnswers {
		t.Errorf("answer stream hash %s, want %s", got, wantAnswers)
	}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BenchmarkDecodeQueryBody prices the /query body decode per request: the
// canonical batches svtperf sends, and the worst case for the fallback,
// a body the decoder scans to its end before handing it to
// json.Unmarshal (a 64-query batch whose last member is an unknown key),
// beside json.Unmarshal alone on that body.
func BenchmarkDecodeQueryBody(b *testing.B) {
	svt := []byte(`{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"query":512.25},`, 64), ",") + `]}`)
	worst := append(svt[:len(svt)-1:len(svt)-1], `,"note":1}`...)
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"svt-64", svt},
		{"pmw-64x32", pmwBatchBody(64, 32)},
		{"fallback-svt-64", worst},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sc queryScratch
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sc.decode(c.body, DefaultMaxBatch); err != nil {
					b.Fatal(err)
				}
				sc.req = queryRequest{}
			}
		})
	}
	b.Run("unmarshal-only/fallback-svt-64", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var req queryRequest
			if err := json.Unmarshal(worst, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
