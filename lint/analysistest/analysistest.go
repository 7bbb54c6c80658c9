// Package analysistest runs one analyzer over a golden fixture tree and
// checks its diagnostics against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the subset svtlint
// uses (offline, stdlib-only — see lint/analysis for why).
//
// A fixture tree is a directory acting as a tiny module with path "svtfix":
// packages under it get RelPaths exactly like the real repository's, so
// analyzer scoping logic (server/, mech/, internal/core/ …) is exercised
// verbatim. Expectations are trailing comments of the form
//
//	code() // want "regexp" `second regexp`
//
// where each quoted pattern must match the message of a distinct diagnostic
// reported on that line, and every diagnostic must be matched by a pattern.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/dpgo/svt/lint/analysis"
	"github.com/dpgo/svt/lint/loader"
)

// FixtureModule is the module path fixture trees are loaded under.
const FixtureModule = "svtfix"

// Run loads the fixture tree rooted at dir (with test units) and applies a,
// failing t on any mismatch between reported diagnostics and // want
// expectations. It returns the diagnostics for further assertions.
func Run(t *testing.T, dir string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := loader.Load(loader.Config{Root: dir, Module: FixtureModule, Tests: true}, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s contains no packages", dir)
	}

	var diags []analysis.Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Module:    FixtureModule,
			RelPath:   pkg.RelPath,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}

	wants := collectWants(t, pkgs)
	matchDiagnostics(t, a, fset, diags, wants)
	return diags
}

// want is one expectation: a pattern attached to file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func key(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// collectWants parses // want comments from every fixture file. Files shared
// by two units (package + its test unit never overlap, but defensive dedup
// by filename keeps expectations single-counted).
func collectWants(t *testing.T, pkgs []*loader.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	seenFile := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := pkg.Fset.Position(f.Pos()).Filename
			if seenFile[fname] {
				continue
			}
			seenFile[fname] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, raw := range splitQuoted(t, pos, text) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
						}
						w := &want{file: pos.Filename, line: pos.Line, re: re, raw: raw}
						wants[key(w.file, w.line)] = append(wants[key(w.file, w.line)], w)
					}
				}
			}
		}
	}
	return wants
}

// splitQuoted tokenizes a sequence of Go-quoted strings.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		prefix, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: malformed want expectation near %q", pos, s)
		}
		unq, err := strconv.Unquote(prefix)
		if err != nil {
			t.Fatalf("%s: %v", pos, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[len(prefix):])
	}
	return out
}

func matchDiagnostics(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, diags []analysis.Diagnostic, wants map[string][]*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants[key(pos.Filename, pos.Line)] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, a.Name, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no %s diagnostic matched want %q", w.file, w.line, a.Name, w.raw)
			}
		}
	}
}
