package loader

import (
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the main module (the parent of lint/).
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Join(filepath.Dir(file), "..", "..")
}

// TestLoadRepoServerPackage type-checks the heaviest real package (server
// pulls in net/http, the store, mech, telemetry and trace) with test units.
func TestLoadRepoServerPackage(t *testing.T) {
	pkgs, err := Load(Config{Root: repoRoot(t), Tests: true}, "./server")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	var sawTest bool
	for _, p := range pkgs {
		if p.RelPath != "server" {
			t.Errorf("RelPath = %q, want %q", p.RelPath, "server")
		}
		if p.Types == nil || p.TypesInfo == nil || len(p.TypesInfo.Types) == 0 {
			t.Errorf("%s: missing type information", p.PkgPath)
		}
		if p.IsTestUnit {
			sawTest = true
		}
	}
	if !sawTest {
		t.Error("expected at least one test unit for ./server")
	}
}

// TestLoadRepoAllPackages walks the whole module the way svtlint ./... does.
func TestLoadRepoAllPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	pkgs, err := Load(Config{Root: repoRoot(t), Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	rels := make(map[string]bool)
	for _, p := range pkgs {
		rels[p.RelPath] = true
	}
	for _, want := range []string{"", "server", "store", "mech", "variants", "internal/rng"} {
		if !rels[want] {
			t.Errorf("missing package dir %q in ./... load (got %v)", want, rels)
		}
	}
}
