package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLife requires every go statement in library packages to have a
// provable termination path, catching the leaked per-link writer shape
// wire/federation teardown bugs take: a goroutine that loops forever with
// no channel to receive a close fence on and no WaitGroup join will
// outlive its owner, holding its connection and buffers until process
// exit.
//
// A spawned body (function literal or static callee, followed
// transitively through package-local calls and cross-package facts) is
// accepted when any of these witnesses is present: a channel receive,
// select, or range-over-channel anywhere in the body (the ctx.Done /
// close-fence shape — the fence makes the loop cancellable); a
// (*sync.WaitGroup).Done call (the goroutine is joined, so a hang is a
// visible deadlock rather than a silent leak); or simply the absence of an
// unbounded loop — a body whose loops all have conditions or exits
// terminates on its own. A goroutine started through a function value
// cannot be analyzed and is reported as unprovable. Package main is
// exempt: commands own their process lifetime.
var GoLife = &Analyzer{
	Name: "golife",
	Doc:  "every go statement in library code needs a termination path (close fence, join, or bounded body)",
	Run:  runGoLife,
}

// goLeakFact keys a function's leak verdict in Pass.Shared:
// "goleak:<fullname>" -> reason string (present only for leaking funcs).
func goLeakFact(full string) string { return "goleak:" + full }

// goSummary is the termination evidence found in one function body.
type goSummary struct {
	waits     bool // channel receive / select / range over channel
	joins     bool // (*sync.WaitGroup).Done
	unbounded bool // a `for {}` with no reachable exit in this body
	callees   []*types.Func
}

func runGoLife(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	decls := declaredFuncs(pass)

	// A function leaks when it has an unbounded loop with neither wait nor
	// join witness, or (lacking its own witnesses) calls a function that
	// leaks.
	leaks := make(map[*types.Func]string)
	callees := make(map[*types.Func][]*types.Func, len(decls))
	for fn, fd := range decls {
		s := summarizeBody(pass, fd.Body)
		if s.waits || s.joins {
			continue
		}
		if s.unbounded {
			leaks[fn] = "contains an unbounded loop with no exit, channel wait, or join"
		}
		callees[fn] = s.callees
	}
	calleeLeak := calleeFixpoint(pass, goLeakFact, leaks, callees, func(_ string, had bool, callee *types.Func, _ string) (string, bool) {
		return "calls " + callee.Name() + ", which may run forever", !had
	})

	// Judge every go statement.
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, gs, calleeLeak)
			return true
		})
	}
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt, calleeLeak func(*types.Func) (string, bool)) {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		s := summarizeBody(pass, lit.Body)
		if s.waits || s.joins {
			return
		}
		if s.unbounded {
			pass.Reportf(gs.Pos(), "goroutine has no provable termination path: unbounded loop with no channel wait or WaitGroup join")
			return
		}
		for _, callee := range s.callees {
			if why, leaks := calleeLeak(callee); leaks {
				pass.Reportf(gs.Pos(), "goroutine has no provable termination path: %s %s", callee.Name(), why)
				return
			}
		}
		return
	}
	if fn := staticCallee(pass.Info, gs.Call); fn != nil {
		if why, leaks := calleeLeak(fn); leaks {
			pass.Reportf(gs.Pos(), "goroutine has no provable termination path: %s %s", fn.Name(), why)
		}
		return
	}
	pass.Reportf(gs.Pos(), "goroutine started through a function value: termination cannot be proven; spawn a named function or literal")
}

// summarizeBody collects termination evidence from one body, not
// descending into nested function literals or go statements (they run
// elsewhere).
func summarizeBody(pass *Pass, body *ast.BlockStmt) *goSummary {
	info := pass.Info
	s := &goSummary{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned call's operands still run here, but the spawned
			// body does not; skip entirely (it is judged at its own site).
			return false
		case *ast.SelectStmt:
			s.waits = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.waits = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.waits = true
				}
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopHasExit(pass, n) {
				s.unbounded = true
			}
		case *ast.CallExpr:
			if fn := staticCallee(info, n); fn != nil {
				if funcFullName(fn) == "(*sync.WaitGroup).Done" {
					s.joins = true
				}
				s.callees = append(s.callees, fn)
			}
		}
		return true
	})
	return s
}

// loopHasExit reports whether a `for {}` loop's body contains a reachable
// way out: a return, a panic or process exit, a goto, or a break binding
// to this loop (plain break not nested inside an inner loop, switch, or
// select; or a labeled break). Nested function literals and go statements
// are not part of the loop's control flow.
func loopHasExit(pass *Pass, loop *ast.ForStmt) bool {
	found := false
	var walk func(n ast.Node, depth int) // depth of intervening break targets
	walkNode := func(n ast.Node, depth int) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			switch {
			case n.Tok == token.GOTO:
				found = true
			case n.Tok == token.BREAK && (n.Label != nil || depth == 0):
				found = true
			}
		case *ast.CallExpr:
			if fn := staticCallee(pass.Info, n); fn != nil {
				full := funcFullName(fn)
				if full == "os.Exit" || strings.HasPrefix(full, "log.Fatal") || full == "runtime.Goexit" {
					found = true
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isB := pass.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
					found = true
				}
			}
		}
		return !found
	}
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || found {
				return false
			}
			if m == n {
				return true
			}
			switch m.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// A nested break target: plain breaks inside bind to it,
				// not to our loop. Recurse with increased depth.
				walk(m, depth+1)
				return false
			}
			return walkNode(m, depth)
		})
	}
	walk(loop.Body, 0)
	return found
}
