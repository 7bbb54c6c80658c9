package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/dpgo/svt/lint/analysis"
)

// appendLikeMethods are the store entry points whose Event arguments the
// caller's pooled encoders reuse as soon as the call returns: the
// SessionStore appends, the one-phase Snapshot convenience and
// Rotation.Commit, which carries every snapshot's baseline.
var appendLikeMethods = map[string]bool{
	"Append": true, "AppendBatch": true, "Snapshot": true, "Commit": true,
}

// Noretain enforces the store contract from server/persist.go: Append-family
// implementations must not let Event.Data (or a whole Event) outlive the
// call without copying.
var Noretain = &analysis.Analyzer{
	Name: "noretain",
	Doc: `store Append/AppendBatch/Snapshot and Rotation.Commit must not retain Event.Data

The server journals through pooled encoders: the []byte behind Event.Data is
returned to a sync.Pool the moment the store call returns, so any backend
that stores the slice (or a whole Event) in a field, package variable, map,
channel or spawned goroutine is aliasing memory that is about to be
rewritten — the corruption is silent and only visible as garbled WAL
records. Copy first: copy(dst, ev.Data), append(buf, ev.Data...) or
bytes.Clone. The check is a conservative taint walk over method bodies whose
parameters are store.Event values; holding tainted data only until the
method returns (e.g. a group-commit queue drained before Append unblocks)
is safe but beyond static scope — suppress those with
//nolint:svtlint/noretain and a reason stating the draining invariant.`,
	Run: runNoretain,
}

func runNoretain(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !appendLikeMethods[fd.Name.Name] {
				continue
			}
			seeds := eventParams(pass.TypesInfo, fd)
			if len(seeds) == 0 {
				continue
			}
			checkRetention(pass, fd, seeds)
		}
	}
	return nil, nil
}

// eventParams collects parameters whose type is store.Event, []store.Event
// or *store.Event.
func eventParams(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	seeds := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isEventish(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				seeds[obj] = true
			}
		}
	}
	return seeds
}

// isEventish matches store.Event and slices/pointers thereof, for any
// package whose directory is named "store" (the real module and fixture
// trees alike).
func isEventish(t types.Type) bool {
	t = types.Unalias(t)
	switch t := t.(type) {
	case *types.Slice:
		return isEventish(t.Elem())
	case *types.Pointer:
		return isEventish(t.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return named.Obj().Name() == "Event" && (p == "store" || strings.HasSuffix(p, "/store"))
}

// checkRetention runs a conservative taint analysis: seeds are the Event
// parameters; locals assigned from tainted expressions become tainted;
// tainted values reaching a location that outlives the call are reported.
func checkRetention(pass *analysis.Pass, fd *ast.FuncDecl, seeds map[types.Object]bool) {
	w := &retainWalker{pass: pass, fn: fd, tainted: seeds}
	// Propagate taint through local assignments to a fixed point first so
	// that source order does not matter, then report sinks.
	for range 4 {
		w.grew = false
		ast.Inspect(fd.Body, w.propagate)
		if !w.grew {
			break
		}
	}
	ast.Inspect(fd.Body, w.sink)
}

type retainWalker struct {
	pass    *analysis.Pass
	fn      *ast.FuncDecl
	tainted map[types.Object]bool
	grew    bool
}

func (w *retainWalker) taint(obj types.Object) {
	if obj != nil && !w.tainted[obj] {
		w.tainted[obj] = true
		w.grew = true
	}
}

// propagate grows the tainted set through := / = to locals and range
// clauses, without reporting.
func (w *retainWalker) propagate(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			rhs := pairedRHS(n, i)
			if rhs == nil || !w.taintedExpr(rhs) {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := w.localObj(id); obj != nil {
					w.taint(obj)
				}
			}
		}
	case *ast.RangeStmt:
		if w.taintedExpr(n.X) {
			if id, ok := n.Value.(*ast.Ident); ok {
				w.taint(w.localObj(id))
			}
		}
	}
	return true
}

// sink reports tainted values escaping the call.
func (w *retainWalker) sink(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			rhs := pairedRHS(n, i)
			if rhs == nil || !w.taintedExpr(rhs) {
				continue
			}
			w.checkLHS(lhs, rhs)
		}
	case *ast.SendStmt:
		if w.taintedExpr(n.Value) {
			w.report(n.Value.Pos(), "sends Event data to a channel")
		}
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			if w.taintedExpr(arg) {
				w.report(arg.Pos(), "passes Event data to a goroutine")
			}
		}
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && w.capturesTaint(lit) {
			w.report(n.Pos(), "starts a goroutine capturing Event data")
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if w.taintedExpr(r) {
				w.report(r.Pos(), "returns Event data")
			}
		}
	}
	return true
}

// checkLHS decides whether an assignment target outlives the call.
func (w *retainWalker) checkLHS(lhs, rhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if w.localObj(l) == nil {
			w.report(rhs.Pos(), "stores Event data in package-level variable %s", l.Name)
		}
	case *ast.SelectorExpr:
		// Writing into any field: the struct outlives the call (receiver
		// fields certainly do; a field of a local struct is still a copy
		// the local owns, but distinguishing that soundly needs escape
		// analysis — be conservative).
		w.report(rhs.Pos(), "stores Event data in field %s", l.Sel.Name)
	case *ast.IndexExpr:
		// m[k] = tainted / s[i] = tainted: fine when the container itself
		// is a function-local, escaping otherwise.
		if base, ok := ast.Unparen(l.X).(*ast.Ident); ok && w.localObj(base) != nil {
			w.taint(w.localObj(base))
			return
		}
		w.report(rhs.Pos(), "stores Event data in a non-local map or slice")
	case *ast.StarExpr:
		w.report(rhs.Pos(), "stores Event data through a pointer")
	}
}

// localObj returns the object behind id when it is a parameter or a variable
// declared inside this function body; nil for package-level and foreign
// objects.
func (w *retainWalker) localObj(id *ast.Ident) types.Object {
	obj := w.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() &&
		v.Pos() >= w.fn.Pos() && v.Pos() <= w.fn.End() {
		return obj
	}
	return nil
}

// taintedExpr reports whether e can carry a live reference to Event.Data.
func (w *retainWalker) taintedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = w.pass.TypesInfo.Defs[e]
		}
		return w.tainted[obj]
	case *ast.SelectorExpr:
		return w.taintedExpr(e.X) // ev.Data, ev.ID, ...
	case *ast.SliceExpr:
		return w.taintedExpr(e.X) // reslicing keeps the alias
	case *ast.IndexExpr:
		// evs[i] stays tainted; ev.Data[i] is a byte copy.
		return w.taintedExpr(e.X) && !isBasic(w.pass.TypesInfo, e)
	case *ast.UnaryExpr:
		return w.taintedExpr(e.X)
	case *ast.StarExpr:
		return w.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if w.taintedExpr(elt) {
				return true
			}
		}
		return false
	case *ast.FuncLit:
		return w.capturesTaint(e)
	case *ast.CallExpr:
		return w.taintedCall(e)
	}
	return false
}

// taintedCall: append propagates taint unless it byte-copies via ellipsis;
// the sanctioned copy helpers neutralize taint; other calls are assumed to
// obey the contract themselves (a retaining helper inside the same package
// is analyzed at its own Append-family entry point, if it is one).
func (w *retainWalker) taintedCall(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return w.taintedAppend(call)
		}
	}
	if fn := staticCallee(w.pass.TypesInfo, call); fn != nil {
		full := ""
		if fn.Pkg() != nil {
			full = fn.Pkg().Path() + "." + fn.Name()
		}
		switch full {
		case "bytes.Clone", "slices.Clone", "strings.Clone":
			return false
		}
	}
	// string(ev.Data) conversions and copy() return values carry no alias;
	// arbitrary calls are trusted (documented limitation).
	return false
}

func (w *retainWalker) taintedAppend(call *ast.CallExpr) bool {
	{
		if call.Ellipsis != token.NoPos && len(call.Args) == 2 {
			// append(dst, src...): copies elements out of src. If the
			// elements are plain bytes the result holds no alias; if they
			// are Events the Data pointers ride along.
			return w.taintedExpr(call.Args[0]) || (w.taintedExpr(call.Args[1]) && !byteSliceElem(w.pass.TypesInfo, call.Args[1]))
		}
		for _, a := range call.Args {
			if w.taintedExpr(a) {
				return true
			}
		}
		return false
	}
}

// capturesTaint reports whether a func literal references any tainted
// variable.
func (w *retainWalker) capturesTaint(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.tainted[w.pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func (w *retainWalker) report(pos token.Pos, format string, args ...any) {
	w.pass.Reportf(pos, "%s.%s %s; Event.Data is pooled by the caller and rewritten after the call returns — copy it first (see store.SessionStore contract)",
		recvName(w.fn), w.fn.Name.Name, fmt.Sprintf(format, args...))
}

// pairedRHS matches the i-th LHS of an assignment with its RHS expression,
// or nil when the RHS is a multi-value call/assert (calls are untracked).
func pairedRHS(n *ast.AssignStmt, i int) ast.Expr {
	if len(n.Lhs) == len(n.Rhs) {
		return n.Rhs[i]
	}
	if len(n.Rhs) == 1 && len(n.Lhs) == 1 {
		return n.Rhs[0]
	}
	return nil
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "(recv)"
}

func isBasic(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, basic := types.Unalias(tv.Type).Underlying().(*types.Basic)
	return basic
}

func byteSliceElem(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	s, ok := types.Unalias(tv.Type).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}
