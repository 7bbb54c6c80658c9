// Package svt implements the Sparse Vector Technique (SVT) for
// differential privacy as analyzed and fixed by Lyu, Su and Li,
// "Understanding the Sparse Vector Technique for Differential Privacy"
// (PVLDB 10(6), 2017; arXiv:1603.01699).
//
// # What SVT does
//
// Given a stream of queries q₁, q₂, ... (each with sensitivity at most Δ)
// and thresholds T₁, T₂, ..., SVT releases for each query only whether its
// answer is above (⊤) or below (⊥) the threshold. Its unique property is
// that only positive outcomes consume privacy budget: with a cutoff of c
// positives, the whole — arbitrarily long — interaction is ε-DP.
//
// # What this package provides
//
//   - Sparse: a streaming above-threshold mechanism implementing the
//     paper's Algorithm 7 (the corrected, generalized SVT proved
//     (ε₁+ε₂+ε₃)-DP in Theorem 4) with the monotonic-query refinement of
//     Theorem 5 and the variance-optimal budget allocation of §4.2.
//   - TopC: non-interactive top-c selection via single-pass SVT, SVT with
//     retraversal (§5), or the Exponential Mechanism — the paper's
//     recommendation for the non-interactive setting.
//
// The subpackage variants exposes the paper's six historical SVT variants
// (including the broken, non-private ones) for research and auditing; the
// packages dataset, fim, pmw, metrics, audit and experiments reproduce the
// paper's evaluation end to end.
//
// The mech subpackage is the pluggable mechanism layer: every servable
// mechanism implements mech.Instance and registers a factory, so the
// serving stack never dispatches on mechanism kind. The registered family:
//
//	sparse    the corrected SVT (Algorithm 7), optimal ε₁:ε₂ split,
//	          monotonic refinement, optional ε₃ numeric releases
//	esvt      the accuracy-enhanced exponential-noise SVT of Liu et al.
//	          (arXiv 2407.20068): half the comparison variance at equal ε
//	proposed  Algorithm 1 (fixed ρ, ε₁ = ε₂ = ε/2)
//	dpbook    Algorithm 2, the Dwork-Roth book SVT (resampled ρ)
//	pmw       Private Multiplicative Weights with the corrected SVT gate
//
// The server subpackage turns that registry into a sharded, multi-tenant
// session service (JSON over HTTP, GET /v1/mechanisms discovery, TTL-based
// session expiry, per-session (ε₁, ε₂, ε₃) budget accounting) served by
// cmd/svtserve; the store subpackage gives it durable, crash-recoverable
// session persistence (a write-ahead log with snapshot compaction,
// mmap-backed appends and group commit — every store's AppendBatch
// journals a multi-event transition as one crash-atomic unit), so spent
// privacy budget survives restarts at a per-query cost small enough for
// million-query-per-second serving. The wire subpackage defines a
// length-prefixed binary protocol for the query hot path (svtserve
// -wire-addr serves it alongside HTTP), and the client subpackage is its
// pipelining, registry-driven Go SDK.
//
// # Choosing between SVT and EM
//
// In the interactive setting (queries not known in advance) use Sparse. In
// the non-interactive setting the paper shows the Exponential Mechanism
// dominates SVT for top-c selection; use TopC with MethodEM.
package svt
