//go:build linux

package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIntervalSyncDoesNotHoldAppendLock holds the interval flusher inside
// its msync and checks that the store keeps serving around it: Append,
// AppendBatch and Health return, while Rotate and Close wait for the sync
// to end and then succeed. A reopen recovers every appended event.
func TestIntervalSyncDoesNotHoldAppendLock(t *testing.T) {
	// hold parks the next msync until it is freed. The hook is installed
	// before the WAL opens and removed after it closes, so the flusher
	// never reads the variable while the test writes it.
	var next atomic.Pointer[hold]
	orig := msync
	msync = func(buf []byte) error {
		if h := next.Swap(nil); h != nil {
			close(h.entered)
			<-h.release
		}
		return orig(buf)
	}
	dir := t.TempDir()
	w, err := NewWAL(WALConfig{Dir: dir, Sync: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		msync = orig
		t.Fatal(err)
	}
	var h *hold
	defer func() {
		if h != nil {
			h.free() // a failed check may leave the flusher parked
		}
		w.Close()
		msync = orig
	}()
	if !w.m.active() {
		t.Skip("the journal directory cannot be mapped; the write() path keeps its sync under the lock")
	}
	// holdNextSync is armed only while no Rotate or Close runs, so the
	// next msync is the flusher's.
	holdNextSync := func() *hold {
		h := &hold{entered: make(chan struct{}), release: make(chan struct{})}
		next.Store(h)
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the interval flusher never synced")
		}
		return h
	}
	// waitParked waits until cond shows the call behind done parked on the
	// held sync, failing if the call returns first.
	waitParked := func(what string, done <-chan error, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			select {
			case err := <-done:
				t.Fatalf("%s returned (%v) while the interval sync was in flight", what, err)
			default:
			}
			if cond() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never waited for the interval sync", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var all []Event
	seq := 0
	nextEv := func() Event {
		seq++
		e := ev(1, fmt.Sprintf("s%d", seq), fmt.Sprintf(`{"n":%d}`, seq))
		all = append(all, e)
		return e
	}
	if err := w.Append(nextEv()); err != nil {
		t.Fatal(err)
	}

	// While the flusher's msync is held: appends, a batch and Health.
	h = holdNextSync()
	served := make(chan error, 1)
	go func() {
		for i := 0; i < 8; i++ {
			if err := w.Append(nextEv()); err != nil {
				served <- err
				return
			}
		}
		if err := w.AppendBatch([]Event{nextEv(), nextEv(), nextEv()}); err != nil {
			served <- err
			return
		}
		if hs := w.Health(); hs.Appends != 12 {
			served <- fmt.Errorf("Health reports %d appends, want 12", hs.Appends)
			return
		}
		served <- nil
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		h.free()
		<-served
		t.Fatal("Append blocked behind the interval flusher's msync")
	}

	// Rotate waits for the held sync, then seals the segment.
	rotated := make(chan error, 1)
	var rot Rotation
	go func() {
		var err error
		rot, err = w.Rotate()
		rotated <- err
	}()
	waitParked("Rotate", rotated, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.paused
	})
	h.free()
	if err := <-rotated; err != nil {
		t.Fatalf("Rotate after the sync: %v", err)
	}
	if err := rot.Commit(all); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(nextEv()); err != nil {
			t.Fatal(err)
		}
	}

	// Close waits for the held sync too.
	h = holdNextSync()
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	waitParked("Close", closed, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.closed
	})
	h.free()
	if err := <-closed; err != nil {
		t.Fatalf("Close after the sync: %v", err)
	}

	r, err := NewWAL(WALConfig{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, all) {
		t.Fatalf("recovered %d events, want the %d appended", len(got), len(all))
	}
}

// hold is one parked msync: entered closes when the sync begins, and the
// sync returns once free closes release.
type hold struct {
	entered, release chan struct{}
	once             sync.Once
}

func (h *hold) free() { h.once.Do(func() { close(h.release) }) }
