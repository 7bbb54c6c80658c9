package server

// Session-state journaling: the codec between the SessionManager and a
// store.SessionStore, plus the replay that rebuilds the full sharded state
// after a restart.
//
// The privacy contract drives the design: every budget-mutating transition
// (session create, queries answered, positives consumed, halt, delete,
// expiry) is appended to the store BEFORE the response acknowledging it is
// released, so a crash can never forget spent budget that an analyst has
// already observed.
//
// Codec v4 is the hot-path cost fix: session records (create/snapshot
// events) are encoded with a compact hand-rolled binary layout instead of
// json.Marshal, and both the session-record and the progress-record
// encoders write into pooled scratch buffers, so journaling a query batch
// allocates nothing. v1–v3 records — which are JSON and therefore start
// with '{', unambiguously distinct from the v4 version-byte prefix —
// decode forever; a v4 reader recovers any older WAL unchanged.
//
// Codec v3 made the journal mechanism-agnostic: progress and snapshot
// records carry the mechanism's OPAQUE evolving-state blob
// (mech.Instance.MarshalState — dpbook's resampled ρ, pmw's learned
// synthetic histogram, nothing for mechanisms fully re-derivable from seed
// + stream position) instead of the special-cased rho/synth fields of
// codec v2. The encode path never names a mechanism; the ONLY
// mechanism-aware special case left in this file is the legacy decode
// mapping that turns v1/v2 records' rho/synth fields into the blobs the
// corresponding mechanisms expect today, so existing WALs recover
// unchanged.
//
// Codec v2 (retained on decode) journals each seeded session's noise-stream
// POSITION (the count of raw draws its sources have consumed). Replay
// rebuilds the mechanism from its original seed and fast-forwards the
// re-seeded source by discarding exactly the journaled number of draws: no
// pre-crash draw is ever re-emitted — replaying noise from position 0 would
// hand the analyst deterministic repeats of pre-crash comparisons, enough
// to binary-search the realized noisy threshold — yet the post-restart
// answer stream is bit-identical to an uninterrupted run, so the Seed
// reproducibility contract survives a crash. Unseeded sessions keep the v1
// behavior: accounting is restored, noise is fresh. v1 records (no version
// tag, seed scrubbed to zero) decode and replay exactly as before.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
	"github.com/dpgo/svt/telemetry"
)

// Journaled event kinds. evCreate and evSnapshot both carry a full
// sessionRecord (a snapshot entry is just a create with non-zero counters),
// so replay treats them identically.
const (
	evCreate   byte = 1 // session created; Data = sessionRecord JSON
	evProgress byte = 2 // batch answered; Data = binary progressDelta
	evDelete   byte = 3 // session deleted by the analyst; no Data
	evExpire   byte = 4 // session collected by the TTL janitor; no Data
	evSnapshot byte = 5 // full-state baseline entry; Data = sessionRecord JSON
)

// persistVersion tags sessionRecords written by this codec. Version 2 added
// seed retention plus noise-stream positions; version 3 replaced the
// special-cased rho/synth fields with the mechanism's opaque state blob;
// version 4 switched the wire encoding from JSON to the compact binary
// layout (same logical fields). Absent (zero) marks a v1 record, whose
// seed was always scrubbed and whose streams therefore restart fresh on
// replay.
const persistVersion = 4

// streamedVersion is the first codec version whose records carry
// noise-stream positions; seeded sessions journaled at or after it
// fast-forward on replay instead of drawing fresh noise.
const streamedVersion = 2

// ErrStoreAppend wraps a failed journal append. The response that would
// have acknowledged the un-journaled transition is withheld (the HTTP layer
// maps this to 503), because releasing it would hand the analyst a DP
// answer the journal could forget after a crash.
var ErrStoreAppend = errors.New("server: journaling to the session store failed")

// sessionRecord is the JSON payload of evCreate and evSnapshot events:
// everything needed to rebuild the session byte-for-byte — the create
// parameters as realized (TTL resolved, so Params.TTLSeconds is the
// session's actual TTL; the (ε₁, ε₂, ε₃) split recomputes
// deterministically from them), the counters, the noise-stream positions
// and the mechanism's opaque evolving state.
type sessionRecord struct {
	// V is the codec version; absent means v1 (pre-stream-position).
	V         int          `json:"v,omitempty"`
	Params    CreateParams `json:"params"`
	CreatedAt int64        `json:"createdAtUnixNano"`
	Answered  int          `json:"answered"`
	Positives int          `json:"positives"`
	// Draws is the primary noise stream's absolute position: raw 64-bit
	// draws consumed, construction included. Meaningful only for seeded
	// sessions.
	Draws uint64 `json:"draws,omitempty"`
	// AuxDraws is the auxiliary noise stream's absolute position (0 for
	// single-stream mechanisms). The JSON name keeps the v2 wire spelling,
	// where the only two-stream mechanism was pmw and the auxiliary stream
	// was its SVT gate.
	AuxDraws uint64 `json:"gateDraws,omitempty"`
	// State is the mechanism's opaque evolving-state blob
	// (mech.Instance.MarshalState); absent when the mechanism journals
	// none. It never leaves the server: the journal is exactly as private
	// as the mechanism state it is derived from.
	State []byte `json:"state,omitempty"`
	// Rho and Synth are the LEGACY (v1/v2) special-cased evolving state:
	// dpbook's resampled noisy-threshold offset and pmw's learned
	// synthetic histogram. Decode-only — the encode path never sets them;
	// legacyState maps them onto State so old WALs recover unchanged.
	Rho   *float64  `json:"rho,omitempty"`
	Synth []float64 `json:"synth,omitempty"`
}

// legacyState maps a v1/v2 record's special-cased fields onto the opaque
// state blob the corresponding mechanism expects today. This is the only
// mechanism-aware special case the codec retains, and it runs on decode
// paths only.
func (rec *sessionRecord) legacyState() {
	if len(rec.State) > 0 {
		return
	}
	switch {
	case rec.Synth != nil:
		rec.State = mech.SyntheticStateBlob(rec.Synth)
	case rec.Rho != nil:
		rec.State = mech.RhoStateBlob(*rec.Rho)
	}
	rec.Rho, rec.Synth = nil, nil
}

// recBinaryV4 is the first byte of a binary (v4) session record. JSON
// records — every earlier generation — start with '{' (0x7b), so one byte
// disambiguates the generations forever.
const recBinaryV4 byte = 4

// sessionRecord flags byte bits in the v4 binary encoding.
const (
	recHasThreshold = 1 << 0 // Params.Threshold present: 8-byte float64 follows the fixed fields
	recMonotonic    = 1 << 1 // Params.Monotonic
	recHasState     = 1 << 2 // opaque mechanism state blob present
	recHasHistogram = 1 << 3 // Params.Histogram present
	recHasTenant    = 1 << 4 // Params.Tenant present: uvarint length + bytes at the record's end
)

// appendSessionRecord encodes rec in the v4 binary layout:
//
//	version byte (4), flags byte,
//	mechanism (uvarint length + bytes),
//	epsilon, sensitivity, answerFraction, updateFraction, learningRate,
//	ttlSeconds (6 × float64 LE),
//	maxPositives, seed, 0 (uvarints; 0 fills the old cacheSize slot),
//	[threshold float64 LE]  [histogram: uvarint count + count × float64 LE]
//	createdAt (zig-zag varint), answered, positives, draws, auxDraws
//	(uvarints), [state: uvarint length + bytes],
//	[tenant: uvarint length + bytes]
//
// Varints keep the common record tens of bytes; the encode allocates
// nothing when buf has capacity. New optional fields go at the END behind
// a fresh flag bit (like tenant), so records written before the field
// existed decode unchanged.
//
//svt:hotpath
func appendSessionRecord(buf []byte, rec *sessionRecord) []byte {
	var flags byte
	if rec.Params.Threshold != nil {
		flags |= recHasThreshold
	}
	if rec.Params.Monotonic {
		flags |= recMonotonic
	}
	if len(rec.State) > 0 {
		flags |= recHasState
	}
	if len(rec.Params.Histogram) > 0 {
		flags |= recHasHistogram
	}
	if rec.Params.Tenant != "" {
		flags |= recHasTenant
	}
	buf = append(buf, recBinaryV4, flags)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Params.Mechanism)))
	buf = append(buf, rec.Params.Mechanism...)
	for _, f := range [...]float64{
		rec.Params.Epsilon, rec.Params.Sensitivity, rec.Params.AnswerFraction,
		rec.Params.UpdateFraction, rec.Params.LearningRate, rec.Params.TTLSeconds,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.AppendUvarint(buf, uint64(rec.Params.MaxPositives))
	buf = binary.AppendUvarint(buf, rec.Params.Seed)
	buf = append(buf, 0) // the cacheSize slot
	if rec.Params.Threshold != nil {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*rec.Params.Threshold))
	}
	if len(rec.Params.Histogram) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Params.Histogram)))
		for _, v := range rec.Params.Histogram {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.AppendVarint(buf, rec.CreatedAt)
	buf = binary.AppendUvarint(buf, uint64(rec.Answered))
	buf = binary.AppendUvarint(buf, uint64(rec.Positives))
	buf = binary.AppendUvarint(buf, rec.Draws)
	buf = binary.AppendUvarint(buf, rec.AuxDraws)
	if len(rec.State) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.State)))
		buf = append(buf, rec.State...)
	}
	if rec.Params.Tenant != "" {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Params.Tenant)))
		buf = append(buf, rec.Params.Tenant...)
	}
	return buf
}

// recDecoder walks a v4 binary session record, remembering the first
// failure so field reads chain without per-field error plumbing.
type recDecoder struct {
	data []byte
	bad  bool
}

func (d *recDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *recDecoder) varint() int64 {
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *recDecoder) float() float64 {
	if len(d.data) < 8 {
		d.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

func (d *recDecoder) bytes(n uint64) []byte {
	if n > uint64(len(d.data)) {
		d.bad = true
		return nil
	}
	out := d.data[:n]
	d.data = d.data[n:]
	return out
}

// count reads a uvarint that must survive the cast to int: like the
// progress decoder, a corrupt length near 2^64 must fail recovery, not
// wrap negative and refresh spent budget.
func (d *recDecoder) count() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.bad = true
		return 0
	}
	return int(v)
}

// decodeSessionRecordV4 is the inverse of appendSessionRecord.
func decodeSessionRecordV4(data []byte) (*sessionRecord, error) {
	bad := func() (*sessionRecord, error) {
		return nil, fmt.Errorf("server: bad v4 session record")
	}
	if len(data) < 2 || data[0] != recBinaryV4 {
		return bad()
	}
	flags := data[1]
	if flags&^byte(recHasThreshold|recMonotonic|recHasState|recHasHistogram|recHasTenant) != 0 {
		return bad()
	}
	d := recDecoder{data: data[2:]}
	rec := &sessionRecord{V: persistVersion}
	rec.Params.Mechanism = Mechanism(d.bytes(d.uvarint()))
	rec.Params.Epsilon = d.float()
	rec.Params.Sensitivity = d.float()
	rec.Params.AnswerFraction = d.float()
	rec.Params.UpdateFraction = d.float()
	rec.Params.LearningRate = d.float()
	rec.Params.TTLSeconds = d.float()
	rec.Params.MaxPositives = d.count()
	rec.Params.Seed = d.uvarint()
	d.count() // the cacheSize slot: a record from a cached session recovers uncached
	if flags&recHasThreshold != 0 {
		th := d.float()
		rec.Params.Threshold = &th
	}
	rec.Params.Monotonic = flags&recMonotonic != 0
	if flags&recHasHistogram != 0 {
		n := d.count()
		if n == 0 || uint64(n) > uint64(len(d.data))/8 {
			return bad()
		}
		rec.Params.Histogram = make([]float64, n)
		for i := range rec.Params.Histogram {
			rec.Params.Histogram[i] = d.float()
		}
	}
	rec.CreatedAt = d.varint()
	rec.Answered = d.count()
	rec.Positives = d.count()
	rec.Draws = d.uvarint()
	rec.AuxDraws = d.uvarint()
	if flags&recHasState != 0 {
		n := d.uvarint()
		if n == 0 {
			return bad()
		}
		rec.State = append([]byte(nil), d.bytes(n)...)
	}
	if flags&recHasTenant != 0 {
		n := d.uvarint()
		if n == 0 {
			return bad()
		}
		rec.Params.Tenant = string(d.bytes(n))
	}
	if d.bad || len(d.data) != 0 {
		return bad()
	}
	return rec, nil
}

// decodeSessionRecord decodes any generation of a create/snapshot event's
// payload: the v4 binary layout by its version byte, everything older as
// JSON (with the legacy rho/synth fields mapped onto state blobs).
func decodeSessionRecord(data []byte) (*sessionRecord, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("server: empty session record")
	}
	if data[0] == recBinaryV4 {
		return decodeSessionRecordV4(data)
	}
	var rec sessionRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	// Counter sanity, mirroring the binary decoder: a negative or absurd
	// counter in a JSON record is corruption, and letting it through would
	// understate replayed budget.
	for _, n := range [...]int{rec.Answered, rec.Positives, rec.Params.MaxPositives, rec.Params.CacheSize} {
		if n < 0 || n > math.MaxInt32 {
			return nil, fmt.Errorf("server: session record counter %d out of range", n)
		}
	}
	rec.legacyState()
	return &rec, nil
}

// persistRecord snapshots the session's durable state under its lock. The
// seed is retained (since v2): rebuilding a seeded session re-derives the
// same realized threshold noise, and replay FAST-FORWARDS the stream past
// every journaled draw instead of replaying it from position 0 — so
// pre-crash noise is never re-emitted while the post-restart stream stays
// bit-identical to an uninterrupted run.
func (s *Session) persistRecord() sessionRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := sessionRecord{
		V:         persistVersion,
		Params:    s.params,
		CreatedAt: s.createdAt.UnixNano(),
		Answered:  s.answered,
		Positives: s.positives,
		State:     s.inst.MarshalState(),
	}
	rec.Draws, rec.AuxDraws = s.inst.Draws()
	return rec
}

// progressDelta is what one answered batch adds to a session's journaled
// state: the counter deltas, the noise-stream draw deltas, and — only when
// positives were consumed — the mechanism's opaque evolving state that
// cannot be re-derived at replay.
type progressDelta struct {
	answered  int
	positives int
	draws     uint64
	aux       uint64
	state     []byte
}

// progressFlags bits in the binary encoding. The rho/synth bits are legacy
// (written by codec v2, decoded forever); v3 writes only the state bit.
const (
	progressHasRho   = 1 << 0 // legacy v2: 8-byte float64 ρ follows
	progressHasSynth = 1 << 1 // legacy v2: uvarint count + 8 bytes/bucket
	progressHasState = 1 << 2 // v3: uvarint length + opaque state blob
)

// takeProgress captures and claims the journal delta accumulated since the
// last claimed position, under the session lock. Claiming is optimistic —
// if the append then fails, the claimed counters and draws are simply never
// journaled, which is safe: the batch's response is withheld, so replaying
// less progress re-emits only answers and noise the analyst never observed,
// and the next snapshot record re-absolutizes everything.
func (s *Session) takeProgress() progressDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeProgressLocked()
}

// takeProgressLocked is takeProgress for callers already holding s.mu (the
// query path captures the delta in the same critical section it answered
// under).
//
//svt:hotpath
func (s *Session) takeProgressLocked() progressDelta {
	main, aux := s.inst.Draws()
	d := progressDelta{
		answered:  s.answered - s.jAnswered,
		positives: s.positives - s.jPositives,
		draws:     main - s.jDraws,
		aux:       aux - s.jAux,
	}
	s.jAnswered, s.jPositives = s.answered, s.positives
	s.jDraws, s.jAux = main, aux
	if d.positives > 0 {
		// Evolving mechanism state only changes when positive/update budget
		// is consumed; journaling it on every batch would bloat the log.
		d.state = s.inst.MarshalState()
	}
	return d
}

// appendProgressDelta encodes a batch's deltas compactly into buf — this is
// the hot-path record, one per answered batch, written into a pooled
// buffer. Layout (all integers uvarint unless noted): dAnswered,
// dPositives, dDraws, dAuxDraws, a flags byte, then an optional opaque
// state blob (uvarint length + bytes). A v1 record is the first two fields
// alone; v2 records carried ρ/synthetic-histogram fields behind their own
// flag bits, which decodeProgress still accepts.
//
//svt:hotpath
func appendProgressDelta(buf []byte, d progressDelta) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.answered))
	buf = binary.AppendUvarint(buf, uint64(d.positives))
	buf = binary.AppendUvarint(buf, d.draws)
	buf = binary.AppendUvarint(buf, d.aux)
	var flags byte
	if d.state != nil {
		flags |= progressHasState
	}
	buf = append(buf, flags)
	if d.state != nil {
		buf = binary.AppendUvarint(buf, uint64(len(d.state)))
		buf = append(buf, d.state...)
	}
	return buf
}

// progressEvent wraps appendProgressDelta for callers (and tests) that want
// a standalone event.
func progressEvent(id string, d progressDelta) store.Event {
	return store.Event{Kind: evProgress, ID: id, Data: appendProgressDelta(nil, d)}
}

// decodeProgress is the inverse of progressEvent, accepting the v1
// two-field layout, the v2 layout (ρ/synth flag bits, mapped onto the
// equivalent opaque blobs exactly like sessionRecord.legacyState) and the
// v3 layout.
func decodeProgress(data []byte) (progressDelta, error) {
	var d progressDelta
	bad := func() (progressDelta, error) {
		return progressDelta{}, fmt.Errorf("server: bad progress record")
	}
	da, n := binary.Uvarint(data)
	if n <= 0 {
		return bad()
	}
	data = data[n:]
	dp, n := binary.Uvarint(data)
	if n <= 0 {
		return bad()
	}
	data = data[n:]
	// Counter deltas must survive the cast to int: a corrupt uvarint near
	// 2^64 would wrap NEGATIVE and subtract from the replayed counters —
	// the one corruption shape that refreshes spent privacy budget instead
	// of failing recovery.
	if da > math.MaxInt32 || dp > math.MaxInt32 {
		return bad()
	}
	d.answered, d.positives = int(da), int(dp)
	if len(data) == 0 {
		return d, nil // v1 record: counters only
	}
	if d.draws, n = binary.Uvarint(data); n <= 0 {
		return bad()
	}
	data = data[n:]
	if d.aux, n = binary.Uvarint(data); n <= 0 {
		return bad()
	}
	data = data[n:]
	if len(data) == 0 {
		return bad()
	}
	flags := data[0]
	data = data[1:]
	if flags&^(progressHasRho|progressHasSynth|progressHasState) != 0 {
		return bad()
	}
	if flags&progressHasRho != 0 {
		if len(data) < 8 {
			return bad()
		}
		rho := math.Float64frombits(binary.LittleEndian.Uint64(data))
		d.state = mech.RhoStateBlob(rho)
		data = data[8:]
	}
	if flags&progressHasSynth != 0 {
		ln, n := binary.Uvarint(data)
		if n <= 0 {
			return bad()
		}
		data = data[n:]
		if ln > uint64(len(data))/8 {
			return bad()
		}
		synth := make([]float64, ln)
		for i := range synth {
			synth[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		d.state = mech.SyntheticStateBlob(synth)
		data = data[8*ln:]
	}
	if flags&progressHasState != 0 {
		ln, n := binary.Uvarint(data)
		if n <= 0 {
			return bad()
		}
		data = data[n:]
		if uint64(len(data)) < ln {
			return bad()
		}
		d.state = append([]byte(nil), data[:ln]...)
		data = data[ln:]
	}
	if len(data) != 0 {
		return bad()
	}
	return d, nil
}

// recoverSessions replays the store's event stream into the (still empty,
// not yet serving) manager. Unknown session IDs in progress/delete/expire
// events are tolerated — they are the benign signature of events whose
// session was compacted away — but a session that cannot be rebuilt is a
// hard error: silently dropping it would refresh spent privacy budget.
func (m *SessionManager) recoverSessions() error {
	events, err := m.store.Recover()
	if err != nil {
		return fmt.Errorf("server: recovering session store: %w", err)
	}
	staged := make(map[string]*sessionRecord, len(events))
	var order []string // deterministic rebuild order: first appearance
	for i, ev := range events {
		switch ev.Kind {
		case evCreate, evSnapshot:
			rec, err := decodeSessionRecord(ev.Data)
			if err != nil {
				return fmt.Errorf("server: replaying event %d: decoding session %s: %w", i, ev.ID, err)
			}
			if _, seen := staged[ev.ID]; !seen {
				order = append(order, ev.ID)
			}
			staged[ev.ID] = rec
		case evProgress:
			rec, ok := staged[ev.ID]
			if !ok {
				continue
			}
			d, err := decodeProgress(ev.Data)
			if err != nil {
				return fmt.Errorf("server: replaying event %d for session %s: %w", i, ev.ID, err)
			}
			rec.Answered += d.answered
			rec.Positives += d.positives
			rec.Draws += d.draws
			rec.AuxDraws += d.aux
			if d.state != nil {
				rec.State = d.state
			}
		case evDelete, evExpire:
			delete(staged, ev.ID)
		default:
			return fmt.Errorf("server: replaying event %d: unknown kind %d", i, ev.Kind)
		}
	}
	now := m.now()
	for _, id := range order {
		rec, ok := staged[id]
		if !ok {
			continue // deleted or expired later in the stream
		}
		s, err := m.rebuildSession(id, rec, now)
		if err != nil {
			return err
		}
		sh := m.shardFor(id)
		s.home = sh
		sh.sessions[id] = s
		m.live.Add(1)
		m.recoveredSessions++
	}
	return nil
}

// rebuildSession reconstructs one session from its journaled record: the
// mechanism is rebuilt from the original parameters (same deterministic
// budget split) and fast-forwarded to the journaled counters. Seeded
// stream-position-carrying records (v2+) additionally fast-forward their
// noise streams to the journaled positions, resuming the exact pre-crash
// stream without re-emitting any draw; unseeded (and v1) sessions draw
// fresh noise. The idle TTL restarts at recovery time.
func (m *SessionManager) rebuildSession(id string, rec *sessionRecord, now time.Time) (*Session, error) {
	ttl := time.Duration(rec.Params.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		return nil, fmt.Errorf("server: recovering session %s: bad ttl %v", id, rec.Params.TTLSeconds)
	}
	s, err := newSession(m.registry, id, rec.Params, ttl, time.Unix(0, rec.CreatedAt))
	if err != nil {
		return nil, fmt.Errorf("server: recovering session %s: %w", id, err)
	}
	if idx, ok := m.mechIndex[s.mech]; ok {
		s.mechIdx = idx
	}
	if err := s.restore(rec.Answered, rec.Positives); err != nil {
		return nil, fmt.Errorf("server: recovering session %s: %w", id, err)
	}
	if err := s.restoreState(rec); err != nil {
		return nil, fmt.Errorf("server: recovering session %s: %w", id, err)
	}
	s.touch(now)
	return s, nil
}

// restoreState is crash recovery's mechanism-state step: reinstall the
// journaled opaque evolving state (pmw's learned synthetic histogram,
// dpbook's resampled ρ), then — for seeded records that carry stream
// positions — fast-forward the re-seeded sources past every journaled draw.
func (s *Session) restoreState(rec *sessionRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(rec.State) > 0 {
		if err := s.inst.UnmarshalState(rec.State); err != nil {
			return err
		}
	}
	if rec.V >= streamedVersion && s.params.Seed != 0 {
		if err := s.inst.FastForward(rec.Draws, rec.AuxDraws); err != nil {
			return err
		}
	}
	s.jDraws, s.jAux = s.inst.Draws()
	return nil
}

// collectedRecord pairs a session id with its captured durable state, so
// the expensive JSON encoding can happen outside any lock.
type collectedRecord struct {
	id  string
	rec sessionRecord
}

// collectRecords captures every live session's durable state. Callers hold
// m.journalMu write-locked, so the capture is a consistent cut; the work per
// session is a struct copy (plus the mechanism's state-blob copy), not an
// encode.
func (m *SessionManager) collectRecords() []collectedRecord {
	var recs []collectedRecord
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			recs = append(recs, collectedRecord{id: s.id, rec: s.persistRecord()})
		}
		sh.mu.RUnlock()
	}
	return recs
}

// snapEncPool recycles the snapshot encode arena across snapshots: one
// grown buffer instead of one fresh allocation per session record.
var snapEncPool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<16); return &b }}

// encodeState turns collected records into snapshot events. Every record
// is encoded into a single pooled arena; the events slice the arena, so
// the store must not retain Event.Data past the Commit call (the
// documented store contract). The caller invokes release once the store
// call returns to hand the arena back to the pool.
func encodeState(recs []collectedRecord) (state []store.Event, release func()) {
	bp := snapEncPool.Get().(*[]byte)
	buf := (*bp)[:0]
	// Record offsets during the encode and slice the *final* arena
	// afterwards: append may reallocate, which would invalidate any
	// sub-slices taken mid-flight.
	offs := make([]int, len(recs)+1)
	for i := range recs {
		offs[i] = len(buf)
		buf = appendSessionRecord(buf, &recs[i].rec)
	}
	offs[len(recs)] = len(buf)
	state = make([]store.Event, len(recs))
	for i := range recs {
		state[i] = store.Event{
			Kind: evSnapshot,
			ID:   recs[i].id,
			Data: buf[offs[i]:offs[i+1]:offs[i+1]],
		}
	}
	return state, func() { *bp = buf[:0]; snapEncPool.Put(bp) }
}

// SnapshotNow writes a full-state snapshot to the store, compacting the
// journal. The journal write lock is held only to rotate the store to a
// fresh segment and copy the per-session records: a consistent cut whose
// cost is independent of any file I/O. The encoding and the baseline write
// — the expensive, state-size-proportional part — happen outside the lock,
// with query traffic flowing into the new segment; recovery replays the
// committed baseline plus every newer segment, so nothing acknowledged is
// ever lost even if the commit never lands. It is a no-op without a store,
// and safe for concurrent use.
func (m *SessionManager) SnapshotNow() error {
	if m.store == nil {
		return nil
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	var start int64
	if m.tel != nil {
		start = telemetry.Now()
	}
	err := m.snapshotNow()
	if err != nil {
		m.snapFailures.Add(1)
		m.snapLastErr.Store(err.Error())
	} else {
		// A success clears the last error so Stats reports only a CURRENT
		// failure condition; the failure counter keeps the history.
		m.snapLastErr.Store("")
		m.snapLastOK.Store(m.now().UnixNano())
		m.tel.observeSnapshot(start)
	}
	return err
}

// snapshotNow does the work; callers hold m.snapMu.
func (m *SessionManager) snapshotNow() error {
	m.journalMu.Lock()
	rot, err := m.store.Rotate()
	if err != nil {
		m.journalMu.Unlock()
		return fmt.Errorf("server: rotating store segment: %w", err)
	}
	recs := m.collectRecords()
	m.journalMu.Unlock()
	state, release := encodeState(recs)
	err = rot.Commit(state)
	release()
	if err != nil {
		return fmt.Errorf("server: writing store snapshot: %w", err)
	}
	return nil
}

// snapshotLoop periodically compacts the journal until the manager closes.
// Sessions and queries keep flowing if a snapshot fails; the failure is
// counted, surfaced in Stats (and thus GET /v1/stats) and logged, because a
// store that can no longer compact will eventually exhaust its disk.
func (m *SessionManager) snapshotLoop(interval time.Duration) {
	defer close(m.snapshotDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
			if err := m.SnapshotNow(); err != nil {
				m.logf("server: periodic snapshot failed (journal remains authoritative): %v", err)
			}
		}
	}
}
