// Package errdrop flags discarded error results on send, persist, and
// verify paths: `_ = x.Send(...)`, bare `x.Persist(...)` statements, and
// `v, _ := x.VerifyX(...)` where the dropped value is an error.
//
// The rule is name-scoped rather than universal on purpose. In a BFT
// system the errors that matter most are exactly the ones that are easiest
// to shrug off: a send that never left the process, a persist that never
// reached disk, a verification whose outcome was ignored. Call sites whose
// callee name starts with one of the sensitive verbs below and whose error
// result is discarded must either handle the error or carry a
// //smartlint:allow errdrop <reason> directive — which the driver
// aggregates into a budget summary, turning every intentional drop into a
// reviewed, grep-able inventory entry.
//
// bytes.Buffer and strings.Builder methods are exempt: their error results
// exist only to satisfy io interfaces and are documented to always be nil.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"smartchain/tools/smartlint/analysis"
)

// Analyzer flags dropped errors from send/persist/verify-path calls.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error results (_ = or bare calls) on send/persist/verify paths unless annotated with //smartlint:allow errdrop <reason>",
	Run:  run,
}

// verbs are the sensitive callee-name prefixes. A name matches when it
// starts with a verb at an exported or unexported capitalization boundary
// (Send, sendX, RequestChunk, ...).
var verbs = []string{
	"send", "broadcast", "publish", "request", // message egress
	"persist", "save", "store", "append", "flush", "sync", "commit", "write", "attach", // durability
	"verify", "sign", "validate", // crypto / admission
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkBare(pass, call)
				}
			case *ast.GoStmt:
				checkBare(pass, n.Call)
			case *ast.DeferStmt:
				checkBare(pass, n.Call)
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkBare flags a sensitive call used as a statement while returning an
// error.
func checkBare(pass *analysis.Pass, call *ast.CallExpr) {
	name, ok := sensitiveCallee(pass, call)
	if !ok {
		return
	}
	if errorResultIndex(pass, call) < 0 {
		return
	}
	pass.Reportf(call.Pos(),
		"error result of %s is silently dropped on a %s path: handle it, count it, or annotate with //smartlint:allow errdrop <reason>",
		name, pathKind(name))
}

// checkAssign flags sensitive calls whose error result lands in a blank
// identifier, covering both `_ = x.Send(...)` and `v, _ := x.Verify(...)`.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	// Single call on the RHS: LHS positions map onto the call's results.
	if len(as.Rhs) == 1 {
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		name, sensitive := sensitiveCallee(pass, call)
		if !sensitive {
			return
		}
		errIdx := errorResultIndex(pass, call)
		if errIdx < 0 || errIdx >= len(as.Lhs) {
			return
		}
		if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(as.Pos(),
				"error result of %s is assigned to _ on a %s path: handle it, count it, or annotate with //smartlint:allow errdrop <reason>",
				name, pathKind(name))
		}
		return
	}
	// Parallel assignment: match each RHS call to its LHS slot.
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		name, sensitive := sensitiveCallee(pass, call)
		if !sensitive || errorResultIndex(pass, call) != 0 {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(as.Pos(),
				"error result of %s is assigned to _ on a %s path: handle it, count it, or annotate with //smartlint:allow errdrop <reason>",
				name, pathKind(name))
		}
	}
}

// sensitiveCallee resolves the callee and reports whether its name starts
// with a sensitive verb, excluding the documented always-nil writers.
func sensitiveCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
		if tv, ok := pass.TypesInfo.Types[fun.X]; ok && alwaysNilType(tv.Type) {
			return "", false
		}
	default:
		return "", false
	}
	if !matchesVerb(id.Name) {
		return "", false
	}
	if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && alwaysNilWriter(fn) {
		return "", false
	}
	return id.Name, true
}

func matchesVerb(name string) bool {
	lower := strings.ToLower(name)
	for _, v := range verbs {
		if strings.HasPrefix(lower, v) {
			return true
		}
	}
	return false
}

// alwaysNilWriter reports whether fn is a method of one of the documented
// always-nil-error types (bytes.Buffer, strings.Builder, hash.Hash): their
// error results exist only to satisfy io interfaces.
func alwaysNilWriter(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return alwaysNilType(sig.Recv().Type())
}

// alwaysNilType reports whether t (possibly behind a pointer) is one of the
// documented always-nil-error writer types. hash.Hash must be matched on
// the receiver expression's static type, not the resolved method: its Write
// is the embedded (io.Writer).Write, which alone says nothing.
func alwaysNilType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "bytes.Buffer", "strings.Builder", "hash.Hash":
		return true
	}
	return false
}

// errorResultIndex returns the index of the error result in the call's
// result tuple, or -1 when no result is an error.
func errorResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
		return -1
	default:
		if isErrorType(t) {
			return 0
		}
		return -1
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func pathKind(name string) string {
	lower := strings.ToLower(name)
	switch {
	case hasAnyPrefix(lower, "send", "broadcast", "publish", "request"):
		return "send"
	case hasAnyPrefix(lower, "verify", "sign", "validate"):
		return "verify"
	default:
		return "persist"
	}
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
