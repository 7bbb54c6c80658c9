// Package lint is the repo's static-analysis suite: six analyzers that
// machine-check invariants this codebase's correctness arguments lean on but
// the compiler cannot see. Run it from this directory:
//
//	go run ./cmd/svtlint -root .. ./...
//
// CI runs exactly that (plus this module's own tests) as a required step,
// separate from staticcheck: staticcheck knows Go, svtlint knows THIS repo.
//
// # Why a vendored analysis kernel
//
// The suite is deliberately a separate Go module with zero dependencies, so
// the main module's go.mod stays empty and the linter can never leak into
// the served binary. golang.org/x/tools is not vendored either: the
// analysis/ package is a minimal API-compatible mirror of go/analysis, the
// loader/ package type-checks packages straight from source (module-local
// imports resolve under the module root, everything else must live in
// GOROOT), and analysistest/ re-implements the `// want "regex"` golden
// fixture protocol. Analyzers are written against the same Pass shape as
// upstream, so porting one to real x/tools later is mechanical.
//
// # The analyzers
//
//   - mechswitch — server/ must not dispatch on concrete mechanism types or
//     mechanism-name string sets; everything goes through the mech.Instance
//     seam and the registry. Guards the PR-4 registry invariant that adding
//     a mechanism never edits server code.
//   - noretain — store backends' Append, AppendBatch, Snapshot and
//     Rotation.Commit implementations must not retain Event.Data beyond
//     the call without copying; callers recycle those buffers through
//     pools. Guards the pooled-encoder contract.
//   - seededrand — privacy-critical packages draw noise only through
//     internal/rng.Source, never math/rand, math/rand/v2 or crypto/rand
//     directly. Guards seeded-replay crash recovery: a stray generator
//     breaks bit-identical resume.
//   - canonheader — literal header keys passed to http.Header Get/Set/Del/
//     Add/Values must be in canonical MIME form; non-canonical keys pay a
//     per-call canonicalization allocation on the hot path.
//   - floateq — no ==/!= on floats in mech/ and audit/ non-test code;
//     budget arithmetic must use tolerances or sentinel helpers.
//   - hotclock — functions (or files) marked //svt:hotpath must not call
//     time.Now/time.Since (use telemetry.Now) or fmt.Sprint* (use pooled
//     encoding / strconv.Append*).
//
// # Suppressing a finding
//
// A justified exception takes a nolint directive on the offending line (or
// the line above) WITH a reason after a second "//":
//
//	return x != 0 //nolint:svtlint/floateq // 0 is the unset-param sentinel, never computed
//
// A reason-less directive suppresses nothing and is itself reported. Bare
// //nolint:svtlint (no analyzer name) suppresses every svtlint finding on
// the line and demands a reason the same way.
//
// # Adding an analyzer
//
// Write analyzers/<name>.go exporting an *analysis.Analyzer whose Doc says
// what it forbids and why (≥80 bytes; a meta-test enforces this), add it to
// All() in analyzers/registry.go, and give it golden fixtures under
// testdata/src/<name>/violating and testdata/src/<name>/clean. Fixtures
// load under the module path "svtfix" with the case directory as module
// root, so package paths like "server" or "internal/core" match the real
// repo and the analyzer's scoping logic is exercised verbatim.
package lint
