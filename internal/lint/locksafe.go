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
// pattern) is not visible to its caller, and what is held is walkHeld's
// source-order tracking, not a control-flow graph — both are accepted
// limitations, tuned so that the real tree's idioms need no suppressions
// beyond genuinely intentional blocking. Under several held locks the
// diagnostic names the one acquired first.
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

	"(*genas/internal/broker.Broker).Publish":          "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishCtx":       "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishValues":    "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishValuesCtx": "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishBatch":     "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).PublishBatchCtx":  "may stall on a Block-policy subscriber",
	"(*genas/internal/broker.Broker).SubscribeWith":    "takes broker registration locks",
	"(*genas/internal/broker.Queue).Subscribe":         "takes broker registration locks",
	"(*genas/internal/broker.Queue).Close":             "takes broker registration locks",
	"(*genas/internal/broker.Broker).Unsubscribe":      "takes broker registration locks",
	"(*genas/internal/broker.Broker).Close":            "waits out in-flight deliveries",
	"(*genas/internal/broker.Broker).blockingSend":     "blocks until buffer space frees",
	"(*genas/internal/wire.Server).Close":              "waits for handler goroutines",
	"(genas/internal/wire.Overlay).HandlePeer":         "runs a peer link to completion",
	"(*genas/internal/federation.Fed).Close":           "waits for link goroutines",
	"(*genas/internal/federation.Fed).Dial":            "network dial + handshake",
}

// blockFact keys a function's blocking reason in Pass.Shared:
// "blocks:<fullname>" -> reason string (present only for blocking funcs).
// Callee lists hold same-package functions only, so the summaries stay
// package-local.
func blockFact(full string) string { return "blocks:" + full }

// runLockSafe analyzes one package: build per-function blocking summaries,
// propagate them through the package-local call graph, then re-walk every
// function tracking held locks and report blocking operations under them.
func runLockSafe(pass *Pass) {
	decls := declaredFuncs(pass)
	direct := make(map[*types.Func]string, len(decls))
	callees := make(map[*types.Func][]*types.Func, len(decls))
	for fn, fd := range decls {
		scanBlockingOps(pass, fd.Body, func(_ token.Pos, what string, _ heldSet) {
			if _, ok := direct[fn]; !ok {
				direct[fn] = what
			}
		}, func(callee *types.Func, _ token.Pos, _ heldSet) {
			callees[fn] = append(callees[fn], callee)
		})
	}
	blocking := calleeFixpoint(pass, blockFact, direct, callees, func(_ string, had bool, callee *types.Func, why string) (string, bool) {
		return "calls " + callee.Name() + ", which may block (" + why + ")", !had
	})
	for _, fd := range decls {
		scanBlockingOps(pass, fd.Body, func(pos token.Pos, what string, held heldSet) {
			if lock, ok := held.first(); ok {
				pass.Reportf(pos, "%s while %s is held", what, lock.text)
			}
		}, func(callee *types.Func, pos token.Pos, held heldSet) {
			why, blocks := blocking(callee)
			if lock, ok := held.first(); ok && blocks {
				pass.Reportf(pos, "call to %s (%s) while %s is held", callee.Name(), why, lock.text)
			}
		})
	}
}

// scanBlockingOps walks a function body under walkHeld's held set and
// invokes onOp for every potentially-blocking operation and onCall for
// every static call to a package-local function.
func scanBlockingOps(pass *Pass, body *ast.BlockStmt,
	onOp func(pos token.Pos, what string, held heldSet),
	onCall func(callee *types.Func, pos token.Pos, held heldSet)) {

	info := pass.Info
	// Comm statements of select clauses are handled at the select level:
	// a select with a default case never blocks, one without is reported
	// as a single operation.
	exemptComm := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, clause := range sel.Body.List {
				if cc := clause.(*ast.CommClause); cc.Comm != nil {
					exemptComm[cc.Comm] = true
				}
			}
		}
		return true
	})

	walkHeld(pass, body, nil, func(n ast.Node, held heldSet) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				onOp(n.Pos(), "select with no default case (blocks)", held)
			}
		case *ast.SendStmt:
			if !exemptComm[n] {
				onOp(n.Arrow, "channel send", held)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !receiveExempt(exemptComm, n) {
				onOp(n.OpPos, "channel receive", held)
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					onOp(n.For, "range over channel (blocking receive)", held)
				}
			}
		case *ast.CallExpr:
			// A call to a local closure arrives here only when walkHeld
			// declined to inline it (recursion): a dynamic call.
			if fn := staticCallee(info, n); fn != nil {
				if why, seeded := locksafeSeeds[funcFullName(fn)]; seeded {
					onOp(n.Pos(), "call to "+fn.Name()+" ("+why+")", held)
				} else if fn.Pkg() == pass.Pkg {
					onCall(fn, n.Pos(), held)
				}
			} else if isDynamicCall(info, n) {
				onOp(n.Pos(), "call through function value (possible user callback)", held)
			}
		}
		return true
	})
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

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
