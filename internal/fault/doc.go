// Package fault is a deterministic fault-injection harness for chaos
// tests: a Store that wraps any store.SessionStore and a Conn that wraps
// any net.Conn, both driven by a scripted Schedule of Rules.
//
// # Determinism rules
//
// Chaos tests must be replayable, so a Schedule never consults the wall
// clock to decide whether a fault fires. Every Rule is indexed by the
// per-operation call count (fail-after-N, fail-for-K), and probabilistic
// rules draw from a splitmix64 stream seeded at construction — the same
// seed and the same call order replay the same faults. Two corollaries:
//
//   - Probabilistic rules are only reproducible when the matched
//     operation is invoked from a single goroutine (call order is the
//     input to the coin). Count-windowed rules (After/Count) are
//     reproducible under any interleaving of OTHER ops, because each op
//     kind keeps its own counter.
//   - Latency and stalls delay an operation but never gate on time:
//     a Stall blocks until Schedule.Release, not until a deadline, so a
//     test decides exactly when the world unsticks. This also keeps the
//     package clean under the hotclock analyzer — no time.Now anywhere.
package fault
