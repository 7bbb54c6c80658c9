package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/dpgo/svt/internal/stats"
	"github.com/dpgo/svt/store"
)

// TestCreateOptionsKeepFiniteEpsilon runs the paper's Theorem 3
// counterexample through the manager, once for each mechanism and create
// option: ε = 1, c = 5, default threshold 0, unseeded sessions, each
// answering two queries in two Query calls. World D sends the values
// (0, 0) and its neighbour D′ sends (0, 1); the event counted is ⟨⊥, ⊤⟩.
// Where the server accepts the option, each world's Wilson lower bound
// must be at most e^ε times the other world's upper bound. Where it
// refuses, the refusal must be a bad_request. A response cache keyed on
// the query value replays D's repeated 0 as ⊥ with no comparison, so
// P_D = 0 while P_D′ > 0 and no finite ε holds: cacheSize is refused.
func TestCreateOptionsKeepFiniteEpsilon(t *testing.T) {
	const (
		eps    = 1.0
		trials = 10000
	)
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	options := []struct {
		name string
		set  func(*CreateParams)
	}{
		{"plain", func(*CreateParams) {}},
		{"monotonic", func(p *CreateParams) { p.Monotonic = true }},
		{"cacheSize", func(p *CreateParams) { p.CacheSize = 8 }},
	}
	for _, name := range []Mechanism{MechSparse, mechESVT, MechProposed, MechDPBook} {
		for _, opt := range options {
			t.Run(string(name)+"/"+opt.name, func(t *testing.T) {
				p := CreateParams{Mechanism: name, Epsilon: eps, MaxPositives: 5, Threshold: ptr(0)}
				opt.set(&p)
				var events [2]int // ⟨⊥, ⊤⟩ in D and in D′
				for world, second := range [2]float64{0, 1} {
					for i := 0; i < trials; i++ {
						s, err := m.Create(p)
						if err != nil {
							if i > 0 || world > 0 {
								t.Fatalf("create %d in world %d: %v", i, world, err)
							}
							if f := classify(err, ""); f.code != CodeBadRequest {
								t.Fatalf("refused as %s, want %s: %v", f.code, CodeBadRequest, err)
							}
							if p.CacheSize != 0 && !strings.Contains(err.Error(), "no finite ε") {
								t.Fatalf("cacheSize refused without the reason: %v", err)
							}
							return
						}
						first := mustQuery(t, m, s.ID(), []QueryItem{{Query: 0}})
						then := mustQuery(t, m, s.ID(), []QueryItem{{Query: second}})
						if !first.Results[0].Above && then.Results[0].Above {
							events[world]++
						}
						m.Delete(s.ID())
					}
				}
				loD, hiD := stats.WilsonInterval(events[0], trials, 0.05)
				loD2, hiD2 := stats.WilsonInterval(events[1], trials, 0.05)
				if bound := math.Exp(eps); loD > bound*hiD2 || loD2 > bound*hiD {
					t.Errorf("⟨⊥, ⊤⟩ in %d/%d runs on D and %d/%d on D′: the Wilson bounds [%.5f, %.5f] and [%.5f, %.5f] exclude every ratio within e^%v",
						events[0], trials, events[1], trials, loD, hiD, loD2, hiD2, eps)
				}
			})
		}
	}
}

// TestHTTPCacheSizeRefused: a create carrying cacheSize gets 400
// bad_request with the reason, and no session is created.
func TestHTTPCacheSizeRefused(t *testing.T) {
	srv, m := newTestAPI(t, ManagerConfig{}, APIConfig{})
	before := m.Len()
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"mechanism":"sparse","epsilon":1,"maxPositives":5,"cacheSize":8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != CodeBadRequest ||
		!strings.Contains(eb.Error.Message, "no finite ε") {
		t.Fatalf("create with cacheSize: %d %+v, want 400 bad_request with the reason", resp.StatusCode, eb)
	}
	if n := m.Len(); n != before {
		t.Fatalf("refused create changed Len from %d to %d", before, n)
	}
}

// cachedJournalID, cachedCreate and cachedJournal are a codec-v4 journal
// written by a server that still had the response cache: one unseeded
// sparse session (ε = 1, c = 100, no default threshold) created with
// cacheSize 16, then three identical certain-⊥ queries. The first drew
// noise and the other two were cache hits, so the last two progress
// records carry no draws.
const cachedJournalID = "3c5e97ab5ba420383a66c6327a61e724"

var cachedCreate = fromHex("040006737061727365000000000000f03f00000000000000000000000000000000000000000000000000000000000000000000000000c08240640010f6e7a2d5c1ddeadf3100000100")

var cachedJournal = []store.Event{
	{Kind: evCreate, ID: cachedJournalID, Data: cachedCreate},
	{Kind: evProgress, ID: cachedJournalID, Data: fromHex("0100010000")},
	{Kind: evProgress, ID: cachedJournalID, Data: fromHex("0100000000")},
	{Kind: evProgress, ID: cachedJournalID, Data: fromHex("0100000000")},
}

func fromHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestCachedJournalRecoversUncached: a session journaled with the
// response cache recovers as an ordinary session, with exact counters, no
// cache, and a fresh noisy comparison for a repeated query.
func TestCachedJournalRecoversUncached(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range cachedJournal {
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m, _ := openWALManager(t, dir)
	if m.Recovered() != 1 {
		t.Fatalf("recovered %d sessions, want 1", m.Recovered())
	}
	if st := mustStatus(t, m, cachedJournalID); st.Answered != 3 || st.Positives != 0 {
		t.Fatalf("recovered counters %+v, want answered=3 positives=0", st)
	}
	s, _ := m.Get(cachedJournalID)
	if _, cached := s.inst.(interface{ Hits() uint64 }); cached {
		t.Fatalf("recovered instance %T still counts cache hits", s.inst)
	}
	mustQuery(t, m, cachedJournalID, sureNegative())
	before, _ := s.inst.Draws()
	mustQuery(t, m, cachedJournalID, sureNegative())
	if after, _ := s.inst.Draws(); after == before {
		t.Fatal("a repeated query drew no noise")
	}
}

// TestSessionRecordWritesZeroCacheSize: the v4 record keeps its cacheSize
// slot but always writes 0 in it.
func TestSessionRecordWritesZeroCacheSize(t *testing.T) {
	rec := sessionRecord{
		V:      persistVersion,
		Params: CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 100, TTLSeconds: 600},
	}
	want := appendSessionRecord(nil, &rec)
	rec.Params.CacheSize = 16
	if got := appendSessionRecord(nil, &rec); !bytes.Equal(got, want) {
		t.Fatalf("CacheSize 16 encodes as %x, want the CacheSize 0 bytes %x", got, want)
	}
	dec, err := decodeSessionRecord(cachedCreate)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Params.CacheSize != 0 {
		t.Fatalf("decoded CacheSize %d, want the slot dropped", dec.Params.CacheSize)
	}
}
