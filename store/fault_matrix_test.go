package store_test

// The fault case of the store crash matrix: a WAL wrapped in
// internal/fault with scripted append failures, crashed (handle
// abandoned, no Close) and recovered. The contract under test is the
// acked-implies-durable half of the journal invariant from the store's
// point of view: an append that returned nil is on disk, an append that
// returned an injected error never is — no partial or reordered
// residue. This file is external (package store_test) because
// internal/fault imports store.

import (
	"errors"
	"fmt"
	"testing"

	"github.com/dpgo/svt/internal/fault"
	"github.com/dpgo/svt/store"
)

func TestFaultStoreCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	wal, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Appends 3, 4 and 7 fail; everything else goes through.
	sched := fault.NewSchedule(7,
		fault.Rule{Op: fault.OpAppend, After: 2, Count: 2, Err: fault.ErrInjected},
		fault.Rule{Op: fault.OpAppend, After: 6, Count: 1, Err: fault.ErrInjected},
	)
	st := fault.Wrap(wal, sched)

	var acked []store.Event
	for i := 0; i < 10; i++ {
		e := store.Event{Kind: 1, ID: "s", Data: []byte(fmt.Sprintf("ev-%d", i))}
		err := st.Append(e)
		switch {
		case err == nil:
			acked = append(acked, e)
		case errors.Is(err, fault.ErrInjected):
			// Refused before reaching the WAL: must not be durable.
		default:
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if len(acked) != 7 {
		t.Fatalf("acked %d appends, want 7 (three injected failures)", len(acked))
	}
	// Crash: abandon the handle without Close. SyncAlways means every
	// acked append is already on disk.

	w2, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acked) {
		t.Fatalf("recovered %d events, want %d", len(got), len(acked))
	}
	for i := range got {
		if got[i].Kind != acked[i].Kind || got[i].ID != acked[i].ID || string(got[i].Data) != string(acked[i].Data) {
			t.Fatalf("recovered[%d] = %+v, want %+v", i, got[i], acked[i])
		}
	}
}

// TestFaultStoreBatchCrashMatrix: the batch path through the wrapper
// keeps AppendBatch's atomicity — an injected batch failure leaves none of
// the batch durable, and an acked batch survives a crash whole.
func TestFaultStoreBatchCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	wal, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.NewSchedule(7,
		fault.Rule{Op: fault.OpAppendBatch, After: 0, Count: 1, Err: fault.ErrInjected},
	)
	st := fault.Wrap(wal, sched)

	batch := func(tag string) []store.Event {
		return []store.Event{
			{Kind: 1, ID: "a", Data: []byte(tag + "-1")},
			{Kind: 2, ID: "a", Data: []byte(tag + "-2")},
		}
	}
	if err := st.AppendBatch(batch("doomed")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first batch = %v, want ErrInjected", err)
	}
	if err := st.AppendBatch(batch("acked")); err != nil {
		t.Fatalf("second batch: %v", err)
	}
	// Crash without Close, reopen, recover.
	w2, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := batch("acked")
	if len(got) != len(want) {
		t.Fatalf("recovered %d events, want %d (failed batch must leave nothing)", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Data) != string(want[i].Data) {
			t.Fatalf("recovered[%d] = %q, want %q", i, got[i].Data, want[i].Data)
		}
	}
}
