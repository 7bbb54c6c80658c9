package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/dpgo/svt/lint/analysis"
)

// floateqDirs are the packages doing budget/epsilon arithmetic where exact
// float comparison is a correctness bug, not a style choice.
var floateqDirs = []string{"mech", "audit"}

// Floateq forbids ==/!= on floating-point values in budget-arithmetic
// packages.
var Floateq = &analysis.Analyzer{
	Name: "floateq",
	Doc: `no ==/!= on float64 values in mech/ and audit/

Epsilon and budget values are accumulated floating-point sums; exact
equality on them silently diverges after a handful of compositions (the
Lyu-Su-Li variants in the source paper are exactly this genre of
looks-correct arithmetic bug). Compare with an explicit tolerance
(math.Abs(a-b) <= tol, or the package's existing tolerance helper) or
restate the condition as an inequality. Switch statements on float values
are implicit equality chains and are flagged too. Non-test files only:
tests pinning bit-identical replay legitimately need exact comparison.`,
	Run: runFloateq,
}

func runFloateq(pass *analysis.Pass) (any, error) {
	inScope := false
	for _, d := range floateqDirs {
		if underDir(pass.RelPath, d) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil, nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isFloat(pass.TypesInfo, n.X) || isFloat(pass.TypesInfo, n.Y)) {
					pass.Reportf(n.OpPos,
						"floating-point %s comparison on budget arithmetic; use an explicit tolerance or an inequality", n.Op)
				}
			case *ast.SwitchStmt:
				if n.Tag != nil && isFloat(pass.TypesInfo, n.Tag) {
					pass.Reportf(n.Switch,
						"switch on a floating-point value is an implicit exact-equality chain; use explicit tolerance comparisons")
				}
			}
			return true
		})
	}
	return nil, nil
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
