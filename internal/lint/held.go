package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// A heldLock is one mutex a body walk holds. It is named two ways: text is
// the expression as diagnostics print it ("b.mu"); id is the type-granular
// identity lockorder graphs ("pkg.Type.field" for a field, "pkg.var" for a
// package-level mutex, "" for a local one, which no other function can
// name).
type heldLock struct {
	text, id string
	pos      token.Pos // the acquisition
}

// heldSet maps each held lock's expression text to the lock.
type heldSet map[string]heldLock

// first returns the held lock acquired at the lowest position, so that a
// diagnostic under several locks names the same one on every run.
func (h heldSet) first() (heldLock, bool) {
	var out heldLock
	for _, l := range h {
		if out.text == "" || l.pos < out.pos {
			out = l
		}
	}
	return out, out.text != ""
}

// ids returns the distinct identities of the held locks, sorted.
func (h heldSet) ids() []string {
	out := make([]string, 0, len(h))
	for _, l := range h {
		if l.id != "" {
			out = append(out, l.id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// walkHeld walks a function body in source order and tracks which mutexes
// are held. It is the one definition of "held" that locksafe and lockorder
// share:
//   - a lock is held from its Lock or RLock until an Unlock or RUnlock of
//     the same expression text; a deferred unlock releases at return, so
//     the lock stays held for the rest of the body;
//   - a call to a local variable assigned one function literal, exactly
//     once, is inlined: the literal's body is walked at the call, under the
//     locks held there, unless that literal is already being inlined;
//   - an immediately invoked function literal, func() { … }(), is walked
//     in place, under the locks held at its call;
//   - other function literals, go statements and deferred literals are not
//     entered: their bodies run at another time or on another goroutine.
//
// onLock, if not nil, sees each acquisition with the locks held just
// before it; visit sees every other node entered, as ast.Inspect's f does,
// with the locks held at it.
func walkHeld(pass *Pass, body *ast.BlockStmt, onLock func(heldLock, heldSet), visit func(ast.Node, heldSet) bool) {
	held := make(heldSet)
	closures := collectLocalClosures(pass.Info, body)
	deferred := make(map[*ast.CallExpr]bool)
	inlining := make(map[*ast.FuncLit]bool)
	invoked := make(map[*ast.FuncLit]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return invoked[n]
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok && !deferred[n] {
				invoked[lit] = true
			}
			if l, acquire, ok := lockCall(pass, n); ok {
				if acquire {
					if onLock != nil {
						onLock(l, held)
					}
					held[l.text] = l
				} else if !deferred[n] {
					delete(held, l.text)
				}
				return false
			}
			if lit := closureFor(pass.Info, closures, n); lit != nil && !inlining[lit] {
				inlining[lit] = true
				ast.Inspect(lit.Body, walk)
				inlining[lit] = false
				return false
			}
		}
		return visit(n, held)
	}
	ast.Inspect(body, walk)
}

// lockCall recognizes x.Lock(), x.RLock(), x.Unlock() and x.RUnlock() on a
// sync.Mutex or sync.RWMutex; acquire tells the first two from the rest.
func lockCall(pass *Pass, call *ast.CallExpr) (l heldLock, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return l, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return l, false, false
	}
	if tv, found := pass.Info.Types[sel.X]; !found || !isMutex(tv.Type) {
		return l, false, false
	}
	return heldLock{text: exprString(sel.X), id: lockIdentity(pass, sel.X), pos: call.Pos()}, acquire, true
}

// lockIdentity names the mutex expression at type granularity.
func lockIdentity(pass *Pass, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		// A field selection: identity is owner-type.field.
		if selection, ok := pass.Info.Selections[e]; ok {
			if named := namedOf(selection.Recv()); named != nil {
				obj := named.Obj()
				if obj.Pkg() != nil {
					return obj.Pkg().Name() + "." + obj.Name() + "." + e.Sel.Name
				}
			}
			return ""
		}
		// Package-qualified: a package-level mutex var in another package.
		if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name()
		}
		return ""
	case *ast.Ident:
		if v, ok := pass.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return "" // local mutex: cannot participate in a cross-function cycle by name
	case *ast.StarExpr:
		return lockIdentity(pass, e.X)
	}
	return ""
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

// calleeFixpoint propagates a per-function fact through the package's call
// graph and publishes each function's result under key(full name) for the
// packages analyzed after it. facts holds what each function has on its
// own (absent: nothing) and callees its static callees in call order; join
// folds a callee's fact v into the caller's current one, reporting whether
// that changed it. A callee outside the package contributes the fact its
// package published. Callers are visited in source order, so a verdict
// that keeps the first reason it gets is the same on every run. The
// returned lookup serves local and foreign functions alike.
func calleeFixpoint[T any](pass *Pass, key func(string) string, facts map[*types.Func]T,
	callees map[*types.Func][]*types.Func, join func(cur T, had bool, callee *types.Func, v T) (T, bool)) func(*types.Func) (T, bool) {

	lookup := func(fn *types.Func) (T, bool) {
		if v, ok := facts[fn]; ok {
			return v, true
		}
		v, ok := pass.Shared[key(funcFullName(fn))].(T)
		return v, ok
	}
	callers := make([]*types.Func, 0, len(callees))
	for fn := range callees {
		callers = append(callers, fn)
	}
	sort.Slice(callers, func(i, j int) bool { return callers[i].Pos() < callers[j].Pos() })
	for changed := true; changed; {
		changed = false
		for _, fn := range callers {
			for _, callee := range callees[fn] {
				if v, ok := lookup(callee); ok {
					cur, had := facts[fn]
					if next, grew := join(cur, had, callee, v); grew {
						facts[fn], changed = next, true
					}
				}
			}
		}
	}
	for fn, v := range facts {
		pass.Shared[key(funcFullName(fn))] = v
	}
	return lookup
}
