package fault

import (
	"errors"
	"sync"
	"time"

	"github.com/dpgo/svt/store"
)

// Op names a wrapped operation a Rule can apply to.
type Op uint8

const (
	// OpAppend matches Store.Append.
	OpAppend Op = iota
	// OpAppendBatch matches Store.AppendBatch.
	OpAppendBatch
	// OpSnapshot matches Commit on a Rotation that Store.Rotate returned:
	// the snapshot's baseline write. Rotate itself is never faulted.
	OpSnapshot
	// OpRecover matches Store.Recover.
	OpRecover
	// OpRead matches Conn.Read.
	OpRead
	// OpWrite matches Conn.Write.
	OpWrite

	opCount
)

var opNames = [opCount]string{"append", "appendBatch", "snapshot", "recover", "read", "write"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// ErrInjected is the default injected error when a Rule fires without an
// explicit Err. Chaos tests can errors.Is against it.
var ErrInjected = errors.New("fault: injected failure")

// errTorn is the default error for a Rule with a TearAfter byte cutoff.
var errTorn = errors.New("fault: connection torn mid-frame")

// Rule is one entry in a fault script. It applies to calls of Op whose
// 1-based per-op index n satisfies n > After and, when Count > 0,
// n <= After+Count — i.e. "skip the first After calls, then affect the
// next Count (or every later call when Count is zero)". Rules are
// scanned in order; the first match wins.
type Rule struct {
	Op    Op
	After uint64 // arm after this many matching calls pass through clean
	Count uint64 // how many calls to affect once armed; 0 = all

	// Prob, when in (0,1), gates a matched call on a seeded coin flip.
	// 0 (or anything >= 1) means the rule always fires inside its window.
	Prob float64

	// Err is returned without invoking the wrapped operation. When nil
	// the fault still fires (latency, stall, tear) but the operation
	// proceeds afterwards — except for tears, which sever the conn with
	// a default error.
	Err error

	// Latency delays the operation before it proceeds or fails.
	Latency time.Duration

	// Stall blocks the operation until Schedule.Release is called. After
	// release the call returns Err when set, otherwise proceeds.
	Stall bool

	// Tear, for OpRead/OpWrite on a Conn, forwards only the first
	// TearAfter bytes of the matched call, then severs the connection:
	// the call (and every later one) fails with a torn-connection error
	// (Err when set). A torn write is how a frame gets truncated
	// mid-flight; TearAfter 0 severs before any byte moves.
	Tear      bool
	TearAfter int
}

// Schedule is a seeded, replayable fault script shared by any number of
// Store and Conn wrappers. The zero value is unusable; use NewSchedule.
type Schedule struct {
	mu       sync.Mutex
	rules    []Rule
	calls    [opCount]uint64
	injected [opCount]uint64
	rng      uint64
	release  chan struct{}
	released bool
}

// NewSchedule builds a schedule from an ordered rule script. seed feeds
// the splitmix64 stream behind probabilistic rules; schedules with only
// count-windowed rules ignore it.
func NewSchedule(seed uint64, rules ...Rule) *Schedule {
	return &Schedule{
		rules:   append([]Rule(nil), rules...),
		rng:     seed,
		release: make(chan struct{}),
	}
}

// Release unsticks every stalled operation, current and future. Safe to
// call more than once; chaos tests should defer it so stalled store
// goroutines can drain at cleanup.
func (s *Schedule) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.released {
		s.released = true
		close(s.release)
	}
}

// Calls reports how many times op has been invoked through the wrappers.
func (s *Schedule) Calls(op Op) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[op]
}

// Injected reports how many op invocations had a fault applied.
func (s *Schedule) Injected(op Op) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected[op]
}

// coin advances the seeded splitmix64 stream and flips with probability p.
// Caller holds s.mu.
func (s *Schedule) coin(p float64) bool {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < p
}

// match records one call of op and returns the rule that applies, if any.
func (s *Schedule) match(op Op) (Rule, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[op]++
	n := s.calls[op]
	for _, r := range s.rules {
		if r.Op != op || n <= r.After {
			continue
		}
		if r.Count > 0 && n > r.After+r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !s.coin(r.Prob) {
			continue
		}
		s.injected[op]++
		return r, true
	}
	return Rule{}, false
}

// wait blocks until Release is called.
func (s *Schedule) wait() { <-s.release }

// apply runs the non-tear effects of a matched rule: latency, stall,
// error. It returns (nil, false) when the wrapped op should proceed.
func (s *Schedule) apply(r Rule) (err error, done bool) {
	if r.Latency > 0 {
		time.Sleep(r.Latency)
	}
	if r.Stall {
		s.wait()
	}
	if r.Err != nil {
		return r.Err, true
	}
	return nil, false
}

// step is the common fault gate for store operations.
func (s *Schedule) step(op Op) error {
	r, ok := s.match(op)
	if !ok {
		return nil
	}
	err, _ := s.apply(r)
	return err
}

// Store wraps an inner store.SessionStore with scheduled faults.
type Store struct {
	inner store.SessionStore
	sched *Schedule
}

var _ store.SessionStore = (*Store)(nil)

// Wrap returns a faulting view of inner driven by sched.
func Wrap(inner store.SessionStore, sched *Schedule) *Store {
	return &Store{inner: inner, sched: sched}
}

// Append forwards to the inner store unless an OpAppend rule fires.
func (s *Store) Append(ev store.Event) error {
	if err := s.sched.step(OpAppend); err != nil {
		return err
	}
	return s.inner.Append(ev)
}

// AppendBatch forwards to the inner store unless an OpAppendBatch rule
// fires.
func (s *Store) AppendBatch(evs []store.Event) error {
	if err := s.sched.step(OpAppendBatch); err != nil {
		return err
	}
	return s.inner.AppendBatch(evs)
}

// Rotate forwards to the inner store untouched; OpSnapshot rules apply to
// the returned rotation's Commit.
func (s *Store) Rotate() (store.Rotation, error) {
	rot, err := s.inner.Rotate()
	if err != nil {
		return nil, err
	}
	return &rotation{inner: rot, sched: s.sched}, nil
}

// Recover forwards to the inner store unless an OpRecover rule fires.
func (s *Store) Recover() ([]store.Event, error) {
	if err := s.sched.step(OpRecover); err != nil {
		return nil, err
	}
	return s.inner.Recover()
}

// Health forwards the inner store's report.
func (s *Store) Health() store.Health { return s.inner.Health() }

// SetInstrumenter forwards to the inner store.
func (s *Store) SetInstrumenter(i store.Instrumenter) { s.inner.SetInstrumenter(i) }

// Close always forwards: a chaos test must be able to shut the real
// store down even mid-script.
func (s *Store) Close() error { return s.inner.Close() }

// rotation is the faulting view of an inner store's rotation.
type rotation struct {
	inner store.Rotation
	sched *Schedule
}

// Commit forwards to the inner rotation unless an OpSnapshot rule fires.
// A stall blocks until Schedule.Release; an injected error aborts the
// inner rotation, which must see exactly one of Commit or Abort.
func (r *rotation) Commit(state []store.Event) error {
	if err := r.sched.step(OpSnapshot); err != nil {
		r.inner.Abort()
		return err
	}
	return r.inner.Commit(state)
}

// Abort forwards to the inner rotation.
func (r *rotation) Abort() { r.inner.Abort() }
