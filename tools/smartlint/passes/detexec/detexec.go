// Package detexec guards replicated execution's core invariant:
// deterministic-execution code must produce bit-identical results on every
// replica, so it may not observe wall-clock time, draw from an unseeded
// global randomness source, or let map iteration order leak into its
// outputs.
//
// The rules apply package-wide inside the deterministic package
// (internal/coin) and, everywhere else, inside the method bodies that feed
// replicated state: the application execution path (ExecuteBatch) and the
// node's block transition (applyBatch, closeBlock, installView in
// internal/core), which live commit, crash-recovery replay and catch-up
// replay all run and must run to the same result. Tests can only sample
// these properties; this pass enforces them at compile time.
package detexec

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"smartchain/tools/smartlint/analysis"
	"smartchain/tools/smartlint/internal/scopes"
)

// Analyzer flags non-deterministic operations in deterministic-execution
// code.
var Analyzer = &analysis.Analyzer{
	Name: "detexec",
	Doc:  "flags wall-clock reads, unseeded math/rand use, and map-iteration-order-dependent writes in deterministic-execution code",
	Run:  run,
}

// execMethods are the methods checked even outside the deterministic
// packages: the application execution entry point and the node's block
// transition.
var execMethods = map[string]bool{
	"ExecuteBatch": true, "applyBatch": true, "closeBlock": true, "installView": true,
}

func run(pass *analysis.Pass) (any, error) {
	wholePkg := scopes.Deterministic(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !wholePkg && !(execMethods[fd.Name.Name] && fd.Recv != nil) {
				continue
			}
			check(pass, fd.Body)
		}
	}
	return nil, nil
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, body, n)
		}
		return true
	})
}

// checkCall flags time.Now/Since/Until and global-source math/rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s in deterministic-execution code: wall-clock values differ across replicas; derive time from the decided batch context (smr.BatchContext.Timestamp)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (NewSource, New, NewPCG, ...) build explicitly
		// seeded sources and are fine; everything else is the process-global
		// source, seeded differently on every replica.
		if fn.Type().(*types.Signature).Recv() != nil {
			return // method on an explicit (seedable) source
		}
		if strings.HasPrefix(fn.Name(), "New") {
			return
		}
		pass.Reportf(call.Pos(),
			"%s.%s uses the global randomness source in deterministic-execution code: replicas diverge; use rand.New with a seed derived from replicated state", pathBase(fn.Pkg().Path()), fn.Name())
	}
}

// checkMapRange flags order-dependent accumulation inside a range over a
// map: appends to a slice declared outside the loop, and string
// concatenation into an outer variable. Two shapes are recognized as
// order-independent and allowed: commutative numeric accumulation (integer
// sums don't depend on visit order), and the collect-then-sort idiom — an
// appended slice that is passed to a sort call later in the same function,
// which erases the iteration order before the value can leak.
func checkMapRange(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt) {
	if _, ok := pass.TypesInfo.Types[rng.X].Type.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			obj := rootObject(pass, lhs)
			if obj == nil || within(obj.Pos(), rng) {
				continue
			}
			if i < len(as.Rhs) && isAppend(pass, as.Rhs[i]) {
				if sortedAfter(pass, body, obj, rng.End()) {
					continue
				}
				pass.Reportf(as.Pos(),
					"append to %q inside a range over a map: the result depends on random iteration order; collect and sort the keys first", obj.Name())
				continue
			}
			if as.Tok == token.ADD_ASSIGN && isString(pass, lhs) {
				pass.Reportf(as.Pos(),
					"string concatenation into %q inside a range over a map: the result depends on random iteration order; collect and sort the keys first", obj.Name())
			}
		}
		return true
	})
}

// sortFuncs are the sorting entry points that erase iteration order from a
// collected slice.
var sortFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedAfter reports whether obj is passed as the first argument to a
// recognized sort call after pos within body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Path()+"."+fn.Name()] {
			return true
		}
		if rootObject(pass, call.Args[0]) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeFunc resolves a call's target to a *types.Func when possible.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// rootObject digs through selector/index/star chains to the base identifier
// of an assignable expression and resolves it.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func within(pos token.Pos, n ast.Node) bool {
	return n.Pos() <= pos && pos < n.End()
}

// unparen strips parentheses (ast.Unparen needs go1.23; the suite builds
// with go1.22).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isAppend(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
