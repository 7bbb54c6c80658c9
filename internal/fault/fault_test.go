package fault

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/dpgo/svt/store"
)

func TestScheduleWindows(t *testing.T) {
	boom := errors.New("boom")
	s := NewSchedule(1,
		Rule{Op: OpAppend, After: 2, Count: 3, Err: boom},
	)
	st := Wrap(store.NewMem(), s)
	for i := 1; i <= 8; i++ {
		err := st.Append(store.Event{Kind: 1, ID: "s", Data: []byte{byte(i)}})
		inWindow := i > 2 && i <= 5
		if inWindow && !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
		if !inWindow && err != nil {
			t.Fatalf("call %d: err = %v, want nil", i, err)
		}
	}
	if got := s.Calls(OpAppend); got != 8 {
		t.Fatalf("Calls = %d, want 8", got)
	}
	if got := s.Injected(OpAppend); got != 3 {
		t.Fatalf("Injected = %d, want 3", got)
	}
}

func TestScheduleSeededCoinReplays(t *testing.T) {
	run := func(seed uint64) []bool {
		s := NewSchedule(seed, Rule{Op: OpAppend, Prob: 0.5, Err: ErrInjected})
		st := Wrap(store.NewMem(), s)
		out := make([]bool, 64)
		for i := range out {
			out[i] = st.Append(store.Event{Kind: 1, ID: "s"}) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 64-call pattern")
	}
}

func TestStallBlocksUntilRelease(t *testing.T) {
	s := NewSchedule(1, Rule{Op: OpAppend, After: 1, Stall: true})
	st := Wrap(store.NewMem(), s)
	if err := st.Append(store.Event{Kind: 1, ID: "s"}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- st.Append(store.Event{Kind: 1, ID: "s"}) }()
	select {
	case err := <-done:
		t.Fatalf("stalled append returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released append: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append still stuck after Release")
	}
}

// TestWrapMirrorsCapabilities pins the forwarding contract: Health,
// SetInstrumenter and a rotation's Commit reach the inner store.
func TestWrapMirrorsCapabilities(t *testing.T) {
	st := Wrap(store.NewMem(), NewSchedule(1))

	inst := &recoveryCount{}
	st.SetInstrumenter(inst)
	if inst.calls != 1 {
		t.Fatalf("inner store reported %d recoveries to the instrumenter, want 1", inst.calls)
	}
	rot, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rot.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if h := st.Health(); h.Backend != "mem" || h.Snapshots != 1 {
		t.Fatalf("wrapped health = %+v, want the inner Mem's with one snapshot", h)
	}
}

// recoveryCount is an Instrumenter that counts RecoveryObserved calls,
// which a store makes once when the instrumenter is attached.
type recoveryCount struct{ calls int }

func (*recoveryCount) AppendSampled(time.Duration, uint64) {}
func (*recoveryCount) FlushObserved(store.Flush)           {}
func (r *recoveryCount) RecoveryObserved(time.Duration, int) {
	r.calls++
}

// TestSnapshotErrorAbortsRotation: an injected commit failure aborts the
// inner rotation, so the inner store takes the next snapshot.
func TestSnapshotErrorAbortsRotation(t *testing.T) {
	wal, err := store.NewWAL(store.WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	st := Wrap(wal, NewSchedule(1, Rule{Op: OpSnapshot, Count: 1, Err: ErrInjected}))
	for i, want := range []error{ErrInjected, nil} {
		rot, err := st.Rotate()
		if err != nil {
			t.Fatalf("rotation %d: %v", i+1, err)
		}
		if err := rot.Commit(nil); !errors.Is(err, want) {
			t.Fatalf("commit %d = %v, want %v", i+1, err, want)
		}
	}
	if h := wal.Health(); h.Snapshots != 1 {
		t.Fatalf("WAL snapshots = %d, want 1", h.Snapshots)
	}
}

func TestBatchPathFaults(t *testing.T) {
	boom := errors.New("batch boom")
	s := NewSchedule(1, Rule{Op: OpAppendBatch, Err: boom})
	st := Wrap(store.NewMem(), s)
	evs := []store.Event{{Kind: 1, ID: "a"}, {Kind: 1, ID: "b"}}
	if err := st.AppendBatch(evs); !errors.Is(err, boom) {
		t.Fatalf("AppendBatch through the wrapper = %v, want boom", err)
	}
	if got := s.Calls(OpAppendBatch); got != 1 {
		t.Fatalf("batch calls = %d, want 1", got)
	}
}

func TestConnTearMidFrame(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	s := NewSchedule(1, Rule{Op: OpWrite, After: 1, Tear: true, TearAfter: 3})
	fc := WrapConn(client, s)

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := srv.Read(buf)
		got <- buf[:n]
	}()

	if n, err := fc.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("clean write = (%d, %v)", n, err)
	}
	if b := <-got; string(b) != "hello" {
		t.Fatalf("peer read %q, want hello", b)
	}

	go func() {
		buf := make([]byte, 16)
		n, _ := srv.Read(buf)
		got <- buf[:n]
	}()
	n, err := fc.Write([]byte("world!"))
	if n != 3 || !errors.Is(err, errTorn) {
		t.Fatalf("torn write = (%d, %v), want (3, errTorn)", n, err)
	}
	if b := <-got; string(b) != "wor" {
		t.Fatalf("peer read %q after tear, want wor (the 3-byte prefix)", b)
	}
	// Severed: everything after the tear fails the same way.
	if _, err := fc.Write([]byte("x")); !errors.Is(err, errTorn) {
		t.Fatalf("post-tear write = %v, want errTorn", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, errTorn) {
		t.Fatalf("post-tear read = %v, want errTorn", err)
	}
}

func TestConnInjectedReadError(t *testing.T) {
	boom := errors.New("read boom")
	client, srv := net.Pipe()
	defer srv.Close()
	s := NewSchedule(1, Rule{Op: OpRead, Err: boom})
	fc := WrapConn(client, s)
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, boom) {
		t.Fatalf("read = %v, want boom", err)
	}
}
