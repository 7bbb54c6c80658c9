package server

// FuzzDecodeProgress and FuzzDecodeSessionRecord hammer the two journal
// decoders — the progress codec and the session-record codec — with
// arbitrary bytes. Recovery feeds them whatever survived a crash, so they
// must never panic, never over-read, and accept every generation of their
// layouts: v1 (counters only / plain JSON), v2 (special-cased
// ρ/synthetic-histogram), v3 (opaque state blob) and, for session records,
// the v4 compact binary layout. The seed corpora pin one well-formed
// payload per generation so legacy WAL decode can never silently regress.

import (
	"bytes"
	"testing"

	"github.com/dpgo/svt/mech"
)

// legacyV1Progress hand-encodes the codec-v1 two-field layout.
func legacyV1Progress(answered, positives uint64) []byte {
	buf := appendUvarintForTest(nil, answered)
	return appendUvarintForTest(buf, positives)
}

// progressSeeds returns one canonical payload per codec generation, used
// both as the fuzz corpus and by the corpus-pinning test below.
func progressSeeds() [][]byte {
	rho := -1.25
	return [][]byte{
		legacyV1Progress(5, 2),
		legacyV2Progress(2, 1, 9, 0, &rho, nil),
		legacyV2Progress(3, 1, 4, 7, nil, []float64{4, 1.5, 2, 0.5}),
		progressEvent("s", progressDelta{answered: 1, positives: 1, draws: 3, aux: 2,
			state: mech.RhoStateBlob(0.5)}).Data,
		progressEvent("s", progressDelta{answered: 4, positives: 2, draws: 11,
			state: mech.SyntheticStateBlob([]float64{1, 2, 3})}).Data,
		progressEvent("s", progressDelta{answered: 6}).Data,
	}
}

// TestProgressSeedCorpusDecodes keeps every generation's canonical payload
// green outside fuzzing too: each must decode, and re-encode canonically
// (as v3) to a payload that decodes to the identical delta.
func TestProgressSeedCorpusDecodes(t *testing.T) {
	for i, data := range progressSeeds() {
		d, err := decodeProgress(data)
		if err != nil {
			t.Fatalf("seed %d does not decode: %v", i, err)
		}
		re, err := decodeProgress(progressEvent("s", d).Data)
		if err != nil {
			t.Fatalf("seed %d: canonical re-encoding does not decode: %v", i, err)
		}
		if re.answered != d.answered || re.positives != d.positives ||
			re.draws != d.draws || re.aux != d.aux || !bytes.Equal(re.state, d.state) {
			t.Fatalf("seed %d: canonicalization changed the delta:\n got  %+v\n want %+v", i, re, d)
		}
	}
}

// sessionRecordSeeds returns one canonical session-record payload per
// codec generation: v1 (no version tag), v2 (rho/synth special cases), v3
// (opaque state blob) — all JSON — and the v4 binary layout, plus a v4
// create record written with a nonzero cacheSize slot.
func sessionRecordSeeds() [][]byte {
	th := 0.5
	full := sessionRecord{
		V: persistVersion,
		Params: CreateParams{
			Mechanism: MechPMW, Epsilon: 2, Sensitivity: 1, MaxPositives: 3,
			Threshold: &th, Monotonic: true, AnswerFraction: 0.25, Seed: 17,
			TTLSeconds: 600, Histogram: []float64{2, 1, 3}, UpdateFraction: 0.5,
			LearningRate: 0.1, Tenant: "acme",
		},
		CreatedAt: 1700000000000000000, Answered: 9, Positives: 2,
		Draws: 40, AuxDraws: 7, State: mech.SyntheticStateBlob([]float64{1, 2, 3}),
	}
	lean := sessionRecord{
		V:      persistVersion,
		Params: CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 8, TTLSeconds: 60},
	}
	return [][]byte{
		[]byte(`{"params":{"mechanism":"sparse","epsilon":1,"maxPositives":4,"threshold":2,"ttlSeconds":600},"createdAtUnixNano":123,"answered":3,"positives":1}`),
		[]byte(`{"v":2,"params":{"mechanism":"dpbook","epsilon":1,"maxPositives":8,"threshold":0.5,"seed":13,"ttlSeconds":600},"createdAtUnixNano":456,"answered":2,"positives":1,"draws":5,"rho":-0.625}`),
		[]byte(`{"v":2,"params":{"mechanism":"pmw","epsilon":2,"maxPositives":3,"threshold":50,"seed":1,"ttlSeconds":600,"histogram":[2,2,2]},"createdAtUnixNano":789,"answered":1,"positives":1,"draws":1,"gateDraws":3,"synth":[1,2,3]}`),
		[]byte(`{"v":3,"params":{"mechanism":"esvt","epsilon":1,"maxPositives":3,"seed":17,"ttlSeconds":600},"createdAtUnixNano":321,"answered":2,"positives":1,"draws":4,"state":"AAAAAAAA4D8="}`),
		appendSessionRecord(nil, &full),
		appendSessionRecord(nil, &lean),
		cachedCreate,
	}
}

// recsEquivalent compares two records' logical content by their canonical
// (v4) encodings: bit-exact on floats (NaN payloads included, which
// reflect.DeepEqual would refuse), indifferent to the codec generation the
// records were decoded from, and treating empty and absent slices as the
// same — JSON "[]" decodes to an empty non-nil slice that v4 canonically
// omits.
func recsEquivalent(a, b *sessionRecord) bool {
	return bytes.Equal(appendSessionRecord(nil, a), appendSessionRecord(nil, b))
}

// TestSessionRecordSeedCorpusDecodes keeps every generation's canonical
// payload green outside fuzzing too: each must decode, and re-encode
// canonically (as v4 binary) to a payload that decodes to the identical
// logical record.
func TestSessionRecordSeedCorpusDecodes(t *testing.T) {
	for i, data := range sessionRecordSeeds() {
		rec, err := decodeSessionRecord(data)
		if err != nil {
			t.Fatalf("seed %d does not decode: %v", i, err)
		}
		re, err := decodeSessionRecord(appendSessionRecord(nil, rec))
		if err != nil {
			t.Fatalf("seed %d: canonical re-encoding does not decode: %v", i, err)
		}
		if !recsEquivalent(re, rec) {
			t.Fatalf("seed %d: canonicalization changed the record:\n got  %+v\n want %+v", i, re, rec)
		}
	}
}

func FuzzDecodeSessionRecord(f *testing.F) {
	for _, seed := range sessionRecordSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"answered":-1}`))
	v4 := sessionRecordSeeds()[4]
	f.Add(v4[:len(v4)-5])
	f.Add(append(append([]byte(nil), v4...), 0x01)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeSessionRecord(data)
		if err != nil {
			return
		}
		if rec.Answered < 0 || rec.Positives < 0 || rec.Params.MaxPositives < 0 || rec.Params.CacheSize < 0 {
			t.Fatalf("decoder accepted negative counters: %+v", rec)
		}
		// Anything accepted must survive canonical re-encoding: the v4
		// writer followed by the decoder is the identity on logical
		// records. This is what recovery relies on after a snapshot
		// rewrites old records.
		re, err := decodeSessionRecord(appendSessionRecord(nil, rec))
		if err != nil {
			t.Fatalf("accepted record %+v does not re-decode: %v", rec, err)
		}
		if !recsEquivalent(re, rec) {
			t.Fatalf("canonicalization changed the record:\n got  %+v\n want %+v", re, rec)
		}
	})
}

func FuzzDecodeProgress(f *testing.F) {
	for _, seed := range progressSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	truncated := progressSeeds()[3]
	f.Add(truncated[:len(truncated)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeProgress(data)
		if err != nil {
			return
		}
		// Anything accepted must survive canonical re-encoding: the v3
		// writer followed by the decoder is the identity on deltas. This is
		// what recovery relies on after a snapshot rewrites old records.
		re, err := decodeProgress(progressEvent("s", d).Data)
		if err != nil {
			t.Fatalf("accepted delta %+v does not re-decode: %v", d, err)
		}
		if re.answered != d.answered || re.positives != d.positives ||
			re.draws != d.draws || re.aux != d.aux || !bytes.Equal(re.state, d.state) {
			t.Fatalf("canonicalization changed the delta:\n got  %+v\n want %+v", re, d)
		}
	})
}
