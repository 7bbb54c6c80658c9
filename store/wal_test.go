package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// ev builds a test event with a deterministic payload.
func ev(kind byte, id string, data string) Event {
	var d []byte
	if data != "" {
		d = []byte(data)
	}
	return Event{Kind: kind, ID: id, Data: d}
}

// eventsEqual compares two event slices structurally.
func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ID != b[i].ID || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// openWAL opens a WAL with SyncAlways in dir, failing the test on error.
func openWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := NewWAL(WALConfig{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// walPath returns the active journal segment's path.
func walPath(t *testing.T, w *WAL) string {
	t.Helper()
	return filepath.Join(w.dir, segName(walPrefix, w.gen))
}

func TestRecordRoundTrip(t *testing.T) {
	events := []Event{
		ev(1, "abc", `{"x":1}`),
		ev(2, "", ""),
		ev(254, strings.Repeat("s", 300), string(make([]byte, 1000))),
	}
	var buf []byte
	var err error
	for _, e := range events {
		buf, err = appendRecord(buf, e)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, n, err := decodeAll(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decodeAll: n=%d err=%v, want full clean decode of %d bytes", n, err, len(buf))
	}
	if !eventsEqual(got, events) {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
}

func TestRecordRejectsKindZero(t *testing.T) {
	if _, err := appendRecord(nil, Event{Kind: 0, ID: "x"}); err == nil {
		t.Fatal("kind 0 encoded, want error")
	}
}

func TestDecodeRecordTruncatedAndCorrupt(t *testing.T) {
	full, err := appendRecord(nil, ev(7, "session", "payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Any strict prefix is a truncated tail, not corruption.
	for cut := 0; cut < len(full); cut++ {
		_, _, err := decodeRecord(full[:cut], nil)
		if err != ErrTruncatedRecord {
			t.Fatalf("cut at %d: err=%v, want ErrTruncatedRecord", cut, err)
		}
	}
	// A flipped payload byte is corruption.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := decodeRecord(bad, nil); err == nil || err == ErrTruncatedRecord {
		t.Fatalf("corrupt record: err=%v, want ErrCorruptRecord", err)
	}
	// An absurd length prefix is corruption, not an allocation.
	huge := append([]byte(nil), full...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeRecord(huge, nil); err == nil || err == ErrTruncatedRecord {
		t.Fatalf("oversized length: err=%v, want ErrCorruptRecord", err)
	}
}

func TestWALAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	want := []Event{ev(1, "a", "create-a"), ev(2, "a", "progress"), ev(1, "b", "create-b"), ev(3, "a", "")}
	for _, e := range want {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	h := w2.Health()
	if h.RecoveredEvents != 4 || h.TruncatedTail {
		t.Fatalf("health %+v, want 4 recovered events and no truncated tail", h)
	}
}

func TestWALRecoverWithoutClose(t *testing.T) {
	// A process crash leaves no Close behind; with SyncAlways everything
	// appended must still be there.
	dir := t.TempDir()
	w := openWAL(t, dir)
	want := []Event{ev(1, "a", "x"), ev(2, "a", "y")}
	for _, e := range want {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// No w.Close(): simulate the crash by just abandoning the handle.
	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
}

func TestWALTruncatedTailDropped(t *testing.T) {
	for cut := 1; cut <= 5; cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			w := openWAL(t, dir)
			keep := []Event{ev(1, "a", "first"), ev(2, "a", "second")}
			for _, e := range keep {
				if err := w.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Append(ev(2, "a", "torn-away")); err != nil {
				t.Fatal(err)
			}
			path := walPath(t, w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Cut into the last record, simulating a crash mid-write.
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			w2 := openWAL(t, dir)
			defer w2.Close()
			got, err := w2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if !eventsEqual(got, keep) {
				t.Fatalf("recovered %+v, want the two intact events", got)
			}
			h := w2.Health()
			if !h.TruncatedTail || h.DroppedBytes == 0 {
				t.Fatalf("health %+v, want truncatedTail with dropped bytes", h)
			}
			// The torn bytes are physically gone: appends after recovery
			// land on a clean boundary and a third open sees a clean log.
			if err := w2.Append(ev(2, "a", "after-recovery")); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			w3 := openWAL(t, dir)
			defer w3.Close()
			got3, err := w3.Recover()
			if err != nil {
				t.Fatal(err)
			}
			want3 := append(append([]Event(nil), keep...), ev(2, "a", "after-recovery"))
			if !eventsEqual(got3, want3) {
				t.Fatalf("after re-append recovered %+v, want %+v", got3, want3)
			}
			if w3.Health().TruncatedTail {
				t.Fatal("third open still sees a torn tail; truncation did not persist")
			}
		})
	}
}

func TestWALCorruptTailRecordDropped(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	keep := ev(1, "a", "good")
	if err := w.Append(keep); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(2, "a", "rotted")); err != nil {
		t.Fatal(err)
	}
	path := walPath(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the final record's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, []Event{keep}) {
		t.Fatalf("recovered %+v, want only the intact first event", got)
	}
	if h := w2.Health(); !h.TruncatedTail {
		t.Fatalf("health %+v, want truncated tail reported", h)
	}
}

func TestWALSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	for i := 0; i < 10; i++ {
		if err := w.Append(ev(2, "a", fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	state := []Event{ev(5, "a", "snap-a"), ev(5, "b", "snap-b")}
	if err := w.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	post := ev(2, "a", "post")
	if err := w.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the new generation's files remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("dir holds %v, want exactly one snap + one wal", names)
	}

	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Event(nil), state...), post)
	if !eventsEqual(got, want) {
		t.Fatalf("recovered %+v, want snapshot baseline + post-snapshot appends", got)
	}
	if h := w2.Health(); h.Generation != 2 {
		t.Fatalf("generation %d, want 2 after one snapshot", h.Generation)
	}
}

func TestWALIgnoresLeftoverTempSnapshot(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	good := ev(1, "a", "authoritative")
	if err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-snapshot leaves a temp file; it must be ignored and
	// removed, with the previous generation still authoritative.
	tmp := filepath.Join(dir, segName(snapPrefix, 2)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, []Event{good}) {
		t.Fatalf("recovered %+v, want the pre-crash event", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover temp snapshot not removed")
	}
}

func TestWALTornGenerationReplaysNewerSegment(t *testing.T) {
	// A crash between a rotation and its baseline commit leaves wal-3 with
	// no matching snap-3: the generation-2 snapshot stays the baseline and
	// BOTH segments replay after it, so events appended during the doomed
	// snapshot's baseline write are never lost. The newer segment becomes
	// the active one.
	dir := t.TempDir()
	w := openWAL(t, dir)
	good := ev(1, "a", "authoritative")
	if err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot([]Event{good}); err != nil { // now at gen 2
		t.Fatal(err)
	}
	tail := ev(2, "a", "post-snapshot")
	if err := w.Append(tail); err != nil {
		t.Fatal(err)
	}
	rot, err := w.Rotate() // now at gen 3, snap-3 never written
	if err != nil {
		t.Fatal(err)
	}
	during := ev(2, "a", "during-baseline-write")
	if err := w.Append(during); err != nil {
		t.Fatal(err)
	}
	_ = rot // crash before Commit: abandon the rotation and the handle
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Event{good, tail, during}; !eventsEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v (baseline + both segments)", got, want)
	}
	h := w2.Health()
	if h.Generation != 3 || h.SnapshotGeneration != 2 || h.Segments != 2 {
		t.Fatalf("health %+v, want generation 3 on snapshot 2 with a 2-segment chain", h)
	}
	// The next snapshot collapses the chain back to one generation.
	if err := w2.Snapshot(got); err != nil {
		t.Fatal(err)
	}
	if h := w2.Health(); h.Generation != 4 || h.SnapshotGeneration != 4 || h.Segments != 1 {
		t.Fatalf("post-compaction health %+v, want a single generation-4 chain", h)
	}
}

func TestWALMultiSegmentChainBeforeFirstSnapshot(t *testing.T) {
	// The same crash window before ANY snapshot exists: every segment from
	// the oldest onward replays in order.
	dir := t.TempDir()
	w := openWAL(t, dir)
	first := ev(1, "a", "first-segment")
	if err := w.Append(first); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(); err != nil { // snap-2 never committed
		t.Fatal(err)
	}
	second := ev(2, "a", "second-segment")
	if err := w.Append(second); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Event{first, second}; !eventsEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if h := w2.Health(); h.Segments != 2 || h.SnapshotGeneration != 0 {
		t.Fatalf("health %+v, want a 2-segment chain with no snapshot", h)
	}
}

func TestWALSegmentGapRefusesToOpen(t *testing.T) {
	// A deleted middle segment means acknowledged events are gone while
	// newer ones would still replay; recovery must refuse rather than
	// silently under-count spent budget.
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Append(ev(1, "a", "x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rot, err := w.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		rot.Abort() // failed snapshot: the segment chain keeps growing
		if err := w.Append(ev(2, "a", fmt.Sprintf("seg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(walPrefix, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWAL(WALConfig{Dir: dir, Sync: SyncAlways}); err == nil {
		t.Fatal("gapped segment chain opened silently; events in the hole would be forgotten")
	}
}

func TestWALMissingSnapshotSegmentRefusesToOpen(t *testing.T) {
	// Rotate creates (and dir-syncs) wal-<g> BEFORE snap-<g> can exist, so
	// a present snapshot with a missing journal segment means acknowledged
	// post-snapshot events are gone: refuse, like any interior gap.
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Append(ev(1, "a", "x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot([]Event{ev(5, "a", "baseline")}); err != nil { // gen 2
		t.Fatal(err)
	}
	if err := w.Append(ev(2, "a", "post-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(walPrefix, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWAL(WALConfig{Dir: dir, Sync: SyncAlways}); err == nil {
		t.Fatal("missing journal segment for the live snapshot opened silently; its events would be forgotten")
	}
}

func TestWALTornMiddleSegmentRefusesToOpen(t *testing.T) {
	// A torn tail is only benign in the FINAL segment; damage in an earlier
	// segment with newer segments present drops events mid-stream.
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Append(ev(1, "a", "kept")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(2, "a", "will-be-torn")); err != nil {
		t.Fatal(err)
	}
	middle := walPath(t, w)
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(2, "a", "newer-segment")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(middle)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(middle, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWAL(WALConfig{Dir: dir, Sync: SyncAlways}); err == nil {
		t.Fatal("torn middle segment opened silently")
	}
}

// TestWALZeroPaddedSegmentRecovers: an all-zero tail is the mmap chunk
// padding a crash leaves before a segment is trimmed, not a torn record,
// so it is benign in ANY segment of the chain (contrast
// TestWALTornMiddleSegmentRefusesToOpen): the valid prefix replays, the
// padding is trimmed, and no tail is reported as dropped.
func TestWALZeroPaddedSegmentRecovers(t *testing.T) {
	padWithZeros := func(t *testing.T, path string) int64 {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	t.Run("final", func(t *testing.T) {
		dir := t.TempDir()
		w := openWAL(t, dir)
		want := []Event{ev(1, "a", "first"), ev(2, "a", "second")}
		for _, e := range want {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		path := walPath(t, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		valid := padWithZeros(t, path)

		w2 := openWAL(t, dir)
		defer w2.Close()
		got, err := w2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(got, want) {
			t.Fatalf("recovered %+v, want %+v", got, want)
		}
		// Health, not the file size: an mmap reopen maps the segment again
		// and grows it back to a whole chunk.
		if h := w2.Health(); h.TruncatedTail || h.DroppedBytes != 0 || h.JournalBytes != uint64(valid) {
			t.Fatalf("health %+v, want no truncated tail, no dropped bytes and %d journal bytes", h, valid)
		}
	})
	t.Run("sealed", func(t *testing.T) {
		dir := t.TempDir()
		w := openWAL(t, dir)
		sealedEv := ev(1, "a", "sealed-segment")
		if err := w.Append(sealedEv); err != nil {
			t.Fatal(err)
		}
		sealed := walPath(t, w)
		if _, err := w.Rotate(); err != nil { // snap-2 never committed
			t.Fatal(err)
		}
		newer := ev(2, "a", "newer-segment")
		if err := w.Append(newer); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		valid := padWithZeros(t, sealed)

		w2 := openWAL(t, dir)
		defer w2.Close()
		got, err := w2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if want := []Event{sealedEv, newer}; !eventsEqual(got, want) {
			t.Fatalf("recovered %+v, want %+v", got, want)
		}
		info, err := os.Stat(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != valid {
			t.Fatalf("sealed segment is %d bytes after open, want its valid %d", info.Size(), valid)
		}
	})
}

func TestWALRotateAbortAndOverlap(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Append(ev(1, "a", "x")); err != nil {
		t.Fatal(err)
	}
	rot, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(); err == nil {
		t.Fatal("overlapping rotation allowed")
	}
	rot.Abort()
	// After an abort the rotated segment stays and a new snapshot works.
	if err := w.Append(ev(2, "a", "post-abort")); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot([]Event{ev(5, "a", "baseline")}); err != nil {
		t.Fatal(err)
	}
	post := ev(2, "a", "post-snap")
	if err := w.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir)
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Event{ev(5, "a", "baseline"), post}; !eventsEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if h := w2.Health(); h.Segments != 1 {
		t.Fatalf("health %+v, want the chain collapsed to one segment", h)
	}
}

func TestWALCorruptSnapshotRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Append(ev(1, "a", "x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot([]Event{ev(5, "a", "baseline")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, segName(snapPrefix, 2))
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWAL(WALConfig{Dir: dir, Sync: SyncAlways}); err == nil {
		t.Fatal("corrupt snapshot opened silently; spent budget could be forgotten")
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewWAL(WALConfig{Dir: dir, Sync: policy, SyncInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			want := []Event{ev(1, "s", "a"), ev(2, "s", "b")}
			for _, e := range want {
				if err := w.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if policy == SyncInterval {
				time.Sleep(30 * time.Millisecond) // let the flusher tick
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2 := openWAL(t, dir)
			defer w2.Close()
			got, err := w2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if !eventsEqual(got, want) {
				t.Fatalf("recovered %+v, want %+v", got, want)
			}
		})
	}
}

func TestWALClosedOperationsFail(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(1, "a", "")); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := w.Snapshot(nil); err != ErrClosed {
		t.Fatalf("Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestMemStore(t *testing.T) {
	m := NewMem()
	if err := m.Append(ev(1, "a", "x")); err != nil {
		t.Fatal(err)
	}
	// A committed rotation counts one snapshot; an aborted one counts none.
	rot, err := m.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rot.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if rot, err = m.Rotate(); err != nil {
		t.Fatal(err)
	}
	rot.Abort()
	got, err := m.Recover()
	if err != nil || got != nil {
		t.Fatalf("Recover = %v, %v, want empty", got, err)
	}
	h := m.Health()
	if h.Backend != "mem" || h.Appends != 1 || h.Snapshots != 1 {
		t.Fatalf("health %+v", h)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ev(1, "a", "x")); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if _, err := m.Rotate(); err != ErrClosed {
		t.Fatalf("Rotate after Close: %v, want ErrClosed", err)
	}
}

// TestWALFilesAreOwnerOnly: the journal holds client seeds, pmw's private
// histogram and tenant names, so a WAL opened on a fresh path gives no
// group or other permission to its directory or to any file in it, through
// appends, a two-phase snapshot and a reopen.
func TestWALFilesAreOwnerOnly(t *testing.T) {
	forEachWALMode(t, testWALFilesAreOwnerOnly)
}

func testWALFilesAreOwnerOnly(t *testing.T, mmap bool) {
	dir := filepath.Join(t.TempDir(), "journal")
	w, err := newWAL(WALConfig{Dir: dir, Sync: SyncAlways}, mmap)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(1, "a", "seed")); err != nil {
		t.Fatal(err)
	}
	rot, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rot.Commit([]Event{ev(5, "a", "baseline")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(2, "a", "post-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = newWAL(WALConfig{Dir: dir, Sync: SyncAlways}, mmap); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(2, "a", "reopened")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{dir}
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	if len(paths) < 3 {
		t.Fatalf("journal holds %d files, want a segment and a snapshot", len(paths)-1)
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm&0o077 != 0 {
			t.Errorf("%s has mode %v, want no group or other bits", p, perm)
		}
	}
}
