package analyzers

import (
	"strconv"

	"github.com/dpgo/svt/lint/analysis"
)

// privacyCriticalDirs are the module-relative directories whose code
// performs, composes or audits differentially-private releases. "" is the
// root svt package itself.
var privacyCriticalDirs = []string{"", "mech", "internal/core", "variants", "pmw"}

// forbiddenRandImports lists the randomness sources privacy-critical code
// must not reach directly.
var forbiddenRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// Seededrand enforces the replayable-noise invariant: every random draw in a
// privacy-critical package goes through internal/rng.Source.
var Seededrand = &analysis.Analyzer{
	Name: "seededrand",
	Doc: `privacy-critical packages must draw randomness only via internal/rng.Source

The packages implementing mechanisms and budget accounting (the root svt
package, mech/, internal/core/, variants/, pmw/) may not import
math/rand, math/rand/v2 or crypto/rand directly. Noise drawn outside
internal/rng.Source has no journaled seed or stream position, which breaks
bit-identical crash replay (PR 3) and makes privacy audits unable to
reproduce a run. internal/rng itself is the sanctioned wrapper and is exempt;
non-privacy packages (server/, trace/, telemetry/) may mint IDs however they
like.`,
	Run: runSeededrand,
}

func runSeededrand(pass *analysis.Pass) (any, error) {
	if !privacyCritical(pass.RelPath) || underDir(pass.RelPath, "internal/rng") {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if forbiddenRandImports[path] {
				pass.Reportf(imp.Pos(),
					"privacy-critical package %q imports %q; draw randomness through internal/rng.Source so seeds and stream positions are journaled",
					displayPkg(pass), path)
			}
		}
	}
	return nil, nil
}

func privacyCritical(rel string) bool {
	for _, d := range privacyCriticalDirs {
		if underDir(rel, d) {
			return true
		}
	}
	return false
}

func displayPkg(pass *analysis.Pass) string {
	if pass.RelPath == "" {
		return pass.Module
	}
	return pass.RelPath
}
