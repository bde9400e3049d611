package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe flags blocking work performed while a sync.Mutex or
// sync.RWMutex acquired in the same function is still held: channel sends
// and receives (unless inside a select with a default case), selects with
// no default case, network and buffered I/O, calls through function values
// (the shape user callbacks arrive in), and calls to functions that
// transitively do any of those. The blocking call set is seeded with the
// operations that caused the PR 2 Reorder race and the PR 3 Block-send
// fence: broker publish/registration entry points, the Block-policy send,
// and the wire/federation teardown waits.
//
// The analysis is intra-procedural per function with package-local
// transitive summaries: a lock acquired in a callee (the Engine.acquire
// pattern) is not visible to its caller, and lock state is tracked in
// source order, not over the control-flow graph — both are accepted
// limitations, tuned so that the real tree's idioms need no suppressions
// beyond genuinely intentional blocking.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "no blocking work (channel ops, I/O, callbacks) under a mutex held in the same function",
	Run:  runLockSafe,
}

// locksafeSeeds maps fully-qualified functions to why they block. These
// are the known-blocking operations of the standard library plus this
// module's broker/wire/federation surface.
var locksafeSeeds = map[string]string{
	"(net.Conn).Write":           "network write",
	"(net.Conn).Read":            "network read",
	"(io.Writer).Write":          "I/O write",
	"(io.Reader).Read":           "I/O read",
	"(*bufio.Writer).Write":      "buffered write",
	"(*bufio.Writer).Flush":      "buffered flush",
	"(*bufio.Scanner).Scan":      "buffered read",
	"(*bufio.Reader).Read":       "buffered read",
	"(*bufio.Reader).ReadString": "buffered read",
	"(*bufio.Reader).ReadBytes":  "buffered read",
	"net.Dial":                   "network dial",
	"net.DialTimeout":            "network dial",
	"(*net.Dialer).Dial":         "network dial",
	"(*net.Dialer).DialContext":  "network dial",
	"time.Sleep":                 "sleep",
	"(*sync.WaitGroup).Wait":     "WaitGroup wait",
	"(*sync.Cond).Wait":          "condition wait",

	"(*genas/internal/broker.Broker).Publish":            "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishCtx":         "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishValues":      "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishValuesCtx":   "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishBatch":       "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishBatchCtx":    "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).SubscribeWith":      "takes broker registration locks",
	"(*genas/internal/broker.Broker).SubscribeGroup":     "takes broker registration locks",
	"(*genas/internal/broker.Broker).Unsubscribe":        "takes broker registration locks",
	"(*genas/internal/broker.Broker).Close":              "waits out in-flight deliveries",
	"(*genas/internal/broker.Subscription).blockingSend": "blocks until buffer space frees",
	"(*genas/internal/wire.Server).Close":                "waits for handler goroutines",
	"(genas/internal/wire.Overlay).HandlePeer":           "runs a peer link to completion",
	"(*genas/internal/federation.Fed).Close":             "waits for link goroutines",
	"(*genas/internal/federation.Fed).Dial":              "network dial + handshake",
}

// lockOp is one potentially-blocking operation found in a function body.
type lockOp struct {
	pos  token.Pos
	what string
}

// runLockSafe analyzes one package: build per-function blocking summaries,
// propagate them through the package-local call graph, then re-walk every
// function tracking held locks and report blocking operations under them.
func runLockSafe(pass *Pass) {
	decls := declaredFuncs(pass)

	// Phase 1: direct blocking ops + package-local call sites per function.
	type funcFacts struct {
		direct []lockOp
		calls  map[*types.Func][]token.Pos
	}
	facts := make(map[*types.Func]*funcFacts, len(decls))
	for fn, fd := range decls {
		ff := &funcFacts{calls: make(map[*types.Func][]token.Pos)}
		scanBlockingOps(pass, fd.Body, func(op lockOp, _ map[string]token.Pos) {
			ff.direct = append(ff.direct, op)
		}, func(callee *types.Func, pos token.Pos, _ map[string]token.Pos) {
			ff.calls[callee] = append(ff.calls[callee], pos)
		})
		facts[fn] = ff
	}

	// Phase 2: fixpoint — a function blocks if it has a direct blocking op
	// or calls a same-package function that blocks.
	reason := make(map[*types.Func]string, len(decls))
	for fn, ff := range facts {
		if len(ff.direct) > 0 {
			reason[fn] = ff.direct[0].what
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, ff := range facts {
			if _, done := reason[fn]; done {
				continue
			}
			for callee := range ff.calls {
				if why, ok := reason[callee]; ok {
					reason[fn] = "calls " + callee.Name() + ", which may block (" + why + ")"
					changed = true
					break
				}
			}
		}
	}

	// Phase 3: report blocking ops and blocking calls under held locks.
	for _, fd := range decls {
		scanBlockingOps(pass, fd.Body, func(op lockOp, held map[string]token.Pos) {
			if lock, ok := anyHeld(held); ok {
				pass.Reportf(op.pos, "%s while %s is held", op.what, lock)
			}
		}, func(callee *types.Func, pos token.Pos, held map[string]token.Pos) {
			why, blocks := reason[callee]
			if !blocks {
				return
			}
			if lock, ok := anyHeld(held); ok {
				pass.Reportf(pos, "call to %s (%s) while %s is held", callee.Name(), why, lock)
			}
		})
	}
}

func anyHeld(held map[string]token.Pos) (string, bool) {
	for lock := range held {
		return lock, true
	}
	return "", false
}

// scanBlockingOps walks a function body in source order, tracking the set
// of mutexes locked (and not yet unlocked) in this function, and invokes
// onOp for every potentially-blocking operation and onCall for every
// static call to a package-local function, both with the lock set held at
// that point. Function literals and go statements are not descended into:
// their bodies run on other goroutines or at another time.
func scanBlockingOps(pass *Pass, body *ast.BlockStmt,
	onOp func(lockOp, map[string]token.Pos),
	onCall func(*types.Func, token.Pos, map[string]token.Pos)) {

	info := pass.Info
	held := make(map[string]token.Pos)

	// Comm statements of select clauses are handled at the select level:
	// a select with a default case never blocks, one without is reported
	// as a single operation.
	exemptComm := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc := clause.(*ast.CommClause)
			if cc.Comm != nil {
				exemptComm[cc.Comm] = true
			}
		}
		return true
	})

	// Local closures: `f := func() {...}` followed by `f()` is a static
	// call in disguise — scan the literal's body at the call instead of
	// flagging a dynamic call (the broker's rollback idiom).
	localClosures := collectLocalClosures(info, body)

	deferredUnlocks := make(map[*ast.CallExpr]bool)

	// Guard against recursive closures: a literal already being inlined is
	// not entered again.
	inlining := make(map[*ast.FuncLit]bool)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			// A deferred unlock releases at return: the lock stays held
			// for the rest of the body, so keep it in the set and skip
			// the unlock bookkeeping. Other deferred calls are treated
			// at their syntactic position (conservative).
			if _, op, ok := mutexCall(info, n.Call); ok && (op == "Unlock" || op == "RUnlock") {
				deferredUnlocks[n.Call] = true
			}
			return true
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				onOp(lockOp{pos: n.Pos(), what: "select with no default case (blocks)"}, held)
			}
			return true
		case *ast.SendStmt:
			if !exemptComm[n] {
				onOp(lockOp{pos: n.Arrow, what: "channel send"}, held)
			}
			// Operand expressions may still contain calls.
			walkExprs(n.Chan, walk)
			walkExprs(n.Value, walk)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !receiveExempt(exemptComm, n) {
				onOp(lockOp{pos: n.OpPos, what: "channel receive"}, held)
			}
			return true
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					onOp(lockOp{pos: n.For, what: "range over channel (blocking receive)"}, held)
				}
			}
			return true
		case *ast.CallExpr:
			if lock, op, ok := mutexCall(info, n); ok {
				switch op {
				case "Lock", "RLock":
					held[lock] = n.Pos()
				case "Unlock", "RUnlock":
					if !deferredUnlocks[n] {
						delete(held, lock)
					}
				}
				return false
			}
			if fn := staticCallee(info, n); fn != nil {
				if why, seeded := locksafeSeeds[funcFullName(fn)]; seeded {
					onOp(lockOp{pos: n.Pos(), what: "call to " + fn.Name() + " (" + why + ")"}, held)
				} else if fn.Pkg() == pass.Pkg {
					onCall(fn, n.Pos(), held)
				}
				return true
			}
			if lit := closureFor(info, localClosures, n); lit != nil && !inlining[lit] {
				// Inline the closure body under the current lock state.
				inlining[lit] = true
				ast.Inspect(lit.Body, walk)
				inlining[lit] = false
				return false
			}
			if isDynamicCall(info, n) {
				onOp(lockOp{pos: n.Pos(), what: "call through function value (possible user callback)"}, held)
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

func walkExprs(e ast.Expr, walk func(ast.Node) bool) {
	if e != nil {
		ast.Inspect(e, walk)
	}
}

// receiveExempt reports whether a receive expression is the comm operation
// of a select clause (possibly wrapped in an assignment or expression
// statement recorded as exempt — the clause forms `case <-ch:`,
// `case v := <-ch:` and `case v, ok := <-ch:` all resolve to this unary).
func receiveExempt(exempt map[ast.Node]bool, recv *ast.UnaryExpr) bool {
	if exempt[recv] {
		return true
	}
	for n := range exempt {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(n.X) == recv {
				return true
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if ast.Unparen(rhs) == recv {
					return true
				}
			}
		}
	}
	return false
}

// mutexCall recognizes x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() on a
// sync.Mutex or sync.RWMutex, returning the lock's identity and the
// operation name.
func mutexCall(info *types.Info, call *ast.CallExpr) (lock, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := info.Types[sel.X]
	if !found || !isMutex(tv.Type) {
		return "", "", false
	}
	return exprString(sel.X), op, true
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// collectLocalClosures maps local variables assigned exactly one function
// literal (and never reassigned) to that literal.
func collectLocalClosures(info *types.Info, body *ast.BlockStmt) map[*types.Var]*ast.FuncLit {
	assigned := make(map[*types.Var]int)
	lits := make(map[*types.Var]*ast.FuncLit)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj, ok := info.Defs[id].(*types.Var)
		if !ok {
			if obj, ok = info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		assigned[obj]++
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			lits[obj] = lit
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	for obj, n := range assigned {
		if n != 1 {
			delete(lits, obj)
		}
	}
	return lits
}

// closureFor resolves a call through a local single-assignment closure
// variable to its function literal.
func closureFor(info *types.Info, closures map[*types.Var]*ast.FuncLit, call *ast.CallExpr) *ast.FuncLit {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return closures[obj]
}
