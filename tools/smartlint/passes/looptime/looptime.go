// Package looptime keeps blocking operations out of the consensus
// event-loop goroutines. The engine's loop owns all protocol state for
// every in-flight instance of the pipelining window; one blocked iteration
// stalls the whole window, so the loop's call graph must never sleep, never
// block on a bare channel send, and never hold a mutex across a transport
// send.
//
// The loop goroutines are found by call-graph reachability from methods
// named run or loop in the scoped packages (internal/consensus:
// (*Engine).loop, the goroutine form of the Machine handle kept for the
// baselines and the benchmark's probe). The graph covers direct calls and
// method calls resolved by static type within the package, plus function
// literals defined in reachable bodies — except literals handed to `go`
// statements or passed as call arguments (timer callbacks, pool callbacks),
// which execute on other goroutines.
//
// Three things are flagged inside the reachable set:
//
//  1. time.Sleep.
//  2. A channel send statement outside any select: `ch <- v` blocks until a
//     receiver arrives. Sends written as a select case are fine — the
//     engine's decision delivery pairs them with a <-stop case.
//  3. A call whose name starts with Send/Broadcast made between a .Lock()
//     and the matching .Unlock() on the same receiver (or under a deferred
//     Unlock): transport sends can block on the peer queue, and holding a
//     lock across one turns backpressure into a pile-up.
//
// A second, stricter rule holds the state machines the runtimes step to
// their contract: (*machine).step in internal/consensus, the protocol, and
// every method of consensus.Machine, the synchronous handle over it that the
// ordering driver in internal/core steps; (*window).step in internal/core,
// the ordering driver, and (*tail).step beside it, what a block is owed once
// it is executed; and (*machine).step in internal/catchup, the
// state-transfer round (the blocking rule extends to neither core nor
// catchup: core's loops block legitimately — on a full queue, on a
// checkpoint write, on a Fetcher call — and catchup has no loop, the
// ordering driver steps its machine). Everything reachable from such a root
// — function literals passed as arguments included, they run inside the
// step — must be pure: no go
// statement, no channel operation (send, receive, range, close) or select,
// no call into package sync, and no clock or timer
// (time.Now/Since/Until/Sleep/After/AfterFunc/NewTimer/NewTicker/Tick).
// That is what lets a test or simulator drive any number of machines in
// one goroutine under virtual time.
package looptime

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"smartchain/tools/smartlint/analysis"
	"smartchain/tools/smartlint/internal/scopes"
)

// Analyzer flags blocking operations reachable from consensus event loops.
var Analyzer = &analysis.Analyzer{
	Name: "looptime",
	Doc:  "flags blocking calls (time.Sleep, bare channel sends, locks held across Send) reachable from consensus event-loop goroutines (run/loop methods), and any goroutine, channel, lock or clock use reachable from a state machine's step ((*machine).step in consensus and catchup, every consensus.Machine method, (*window).step and (*tail).step in core)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	loops, machines, handles := scopes.EventLoop(pass.Pkg.Path()), scopes.StepMachine(pass.Pkg.Path()), scopes.StepHandle(pass.Pkg.Path())
	if !loops && len(machines) == 0 && len(handles) == 0 {
		return nil, nil
	}

	// Map every package-level function object to its declaration.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	pureRoots := make(map[string][]*types.Func) // by machine or handle type
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			switch {
			case fd.Recv == nil:
			case loops && (fd.Name.Name == "run" || fd.Name.Name == "loop"):
				roots = append(roots, fn)
			case fd.Name.Name == "step" && slices.Contains(machines, recvNamed(fd)),
				slices.Contains(handles, recvNamed(fd)):
				pureRoots[recvNamed(fd)] = append(pureRoots[recvNamed(fd)], fn)
			}
		}
	}

	for fn := range reachable(pass, decls, roots, walkLoopCode) {
		checkBody(pass, fn, decls[fn].Body)
	}
	// A handle reaches its machine's step: each function is checked once,
	// named after the first root that reaches it.
	checked := make(map[*types.Func]bool)
	for _, typ := range append(machines, handles...) {
		root := "(*" + typ + ").step"
		if slices.Contains(handles, typ) {
			root = "a (*" + typ + ") method"
		}
		for fn := range reachable(pass, decls, pureRoots[typ], walkAll) {
			if !checked[fn] {
				checked[fn] = true
				checkPure(pass, root, fn, decls[fn].Body)
			}
		}
	}
	return nil, nil
}

// recvNamed returns the name of a method's receiver type, pointer or not.
func recvNamed(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// walker visits the nodes of a body that belong to the analysed goroutine.
type walker func(body ast.Node, visit func(ast.Node))

// reachable is the set of package functions reachable from roots by
// breadth-first search over same-package static calls found by walk.
func reachable(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, roots []*types.Func, walk walker) map[*types.Func]bool {
	reached := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		for callee := range callees(pass, decls[fn].Body, walk) {
			if _, local := decls[callee]; local && !reached[callee] {
				queue = append(queue, callee)
			}
		}
	}
	return reached
}

// callees collects the *types.Func targets of the calls walk visits in body.
func callees(pass *analysis.Pass, body ast.Node, walk walker) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	walk(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := calleeObject(pass, call).(*types.Func); ok {
				out[fn] = true
			}
		}
	})
	return out
}

// calleeObject resolves the function, method or builtin a call names (nil
// for calls through function values and conversions).
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// walkLoopCode visits the nodes of body that execute on the same goroutine:
// it descends into function literals that stay local (assigned to variables
// or invoked directly) but not into `go` statements or literals passed as
// arguments to other calls.
func walkLoopCode(body ast.Node, visit func(ast.Node)) {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// Everything under `go ...` runs elsewhere; still visit the
			// call's arguments evaluated on this goroutine? They cannot
			// block, so skipping the whole subtree is fine.
			return false
		case *ast.CallExpr:
			// A literal passed as an argument is a callback for someone
			// else's goroutine (time.AfterFunc, verifier pools). A literal
			// called directly — func(){...}() — stays local and is visited.
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					skip[lit] = true
				}
			}
		}
		visit(n)
		return true
	})
}

func checkBody(pass *analysis.Pass, fn *types.Func, body *ast.BlockStmt) {
	// selectCases marks send statements that appear as a select case
	// communication — those pair the send with alternatives and are the
	// sanctioned shape.
	selectCases := make(map[ast.Stmt]bool)
	walkLoopCode(body, func(n ast.Node) {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				selectCases[cc.Comm] = true
			}
		}
	})

	// Deferred unlocks release at function exit, not at their source
	// position: an Unlock under defer must not close the lock window.
	deferred := make(map[ast.Node]bool)
	walkLoopCode(body, func(n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
	})

	type lockState struct {
		recv string
		pos  token.Pos
	}
	var locks []lockState // open (un-unlocked) locks by source order, per body walk

	walkLoopCode(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !selectCases[ast.Stmt(n)] {
				pass.Reportf(n.Pos(),
					"bare channel send in %s, reachable from the consensus event loop: a send outside select blocks the whole ordering window; use a select with a stop/default case", fn.Name())
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			name := sel.Sel.Name
			recv := exprString(sel.X)
			switch {
			case name == "Sleep" && isTimePkg(pass, sel):
				pass.Reportf(n.Pos(),
					"time.Sleep in %s, reachable from the consensus event loop: sleeping stalls every in-flight instance; drive timing through timers feeding the event channel", fn.Name())
			case name == "Lock":
				locks = append(locks, lockState{recv: recv, pos: n.Pos()})
			case name == "Unlock":
				if deferred[ast.Node(n)] {
					return
				}
				for i := len(locks) - 1; i >= 0; i-- {
					if locks[i].recv == recv {
						locks = append(locks[:i], locks[i+1:]...)
						break
					}
				}
			case strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Broadcast"):
				if len(locks) > 0 {
					pass.Reportf(n.Pos(),
						"%s called in %s while %s is locked (reachable from the consensus event loop): a transport send can block on the peer queue; release the lock first", name, fn.Name(), locks[len(locks)-1].recv)
				}
			}
		}
	})
}

// walkAll visits every node of body: inside a pure step, a function literal
// handed to a call (a sort comparator, say) runs in the step itself.
func walkAll(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n != nil {
			visit(n)
		}
		return n != nil
	})
}

// impureTimeFuncs are the package-level time functions that read the wall
// clock or start a timer. Methods (Time.After, Time.Sub, ...) are pure.
var impureTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// checkPure flags everything the state machine's contract rules out.
func checkPure(pass *analysis.Pass, root string, fn *types.Func, body *ast.BlockStmt) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in %s, reachable from %s: the state machine must stay goroutine-free, channel-free, lock-free and clock-free; return an effect and let the runtime do it", what, fn.Name(), root)
	}
	walkAll(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.SelectStmt:
			report(n.Pos(), "select")
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Chan); ok {
				report(n.Pos(), "range over a channel")
			}
		case *ast.CallExpr:
			switch obj := calleeObject(pass, n).(type) {
			case *types.Builtin:
				if obj.Name() == "close" {
					report(n.Pos(), "channel close")
				}
			case *types.Func:
				if obj.Pkg() == nil {
					return
				}
				method := obj.Type().(*types.Signature).Recv() != nil
				switch {
				case obj.Pkg().Path() == "sync":
					report(n.Pos(), "sync."+obj.Name())
				case obj.Pkg().Path() == "time" && !method && impureTimeFuncs[obj.Name()]:
					report(n.Pos(), "time."+obj.Name())
				}
			}
		}
	})
}

// exprString renders a (small) expression for lock-receiver matching.
func exprString(e ast.Expr) string {
	var sb strings.Builder
	_ = printer.Fprint(&sb, token.NewFileSet(), e)
	return sb.String()
}

func isTimePkg(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}
