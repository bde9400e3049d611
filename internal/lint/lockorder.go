package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex-acquisition graph and reports any
// cycle: if one code path locks A then B while another locks B then A, the
// two paths deadlock under contention — the exact shape of the PR 6
// routing/broker finding, where Network.Close held the network lock while
// broker teardown re-entered a node lock the data path acquires in the
// opposite order.
//
// Locks are identified at type granularity — "pkg.Type.field" for a mutex
// field, "pkg.var" for a package-level mutex — so two instances of the
// same field unify: ordering must hold per type, not per object. What is
// held where is walkHeld's definition, shared with locksafe; a local
// mutex has no identity and takes no part. Each function's transitive
// acquisition set is propagated through the callee fixpoint and published
// as a fact, so a call made under a held lock contributes edges to every
// lock the callee (transitively, cross-package) acquires. Self-edges are
// skipped: locking two instances of one type in sequence needs an
// instance order, which is beyond a type-granular analysis.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the cross-package mutex-acquisition graph must stay acyclic",
	Run:  runLockOrder,
}

// lockAcqFact keys a function's transitive lock-acquisition set in
// Pass.Shared: "lockacq:<fullname>" -> []string of lock identities.
func lockAcqFact(full string) string { return "lockacq:" + full }

// Graph state shared across packages, stored under reserved keys (their
// ":" suffixes cannot collide with fact keys, which embed full names).
const (
	lockGraphKey    = "graph:"
	lockReportedKey = "reported:"
)

func runLockOrder(pass *Pass) {
	decls := declaredFuncs(pass)

	// Deterministic function order: the graph's first-writer-wins edge
	// positions and cycle-report sites must not depend on map iteration.
	ordered := make([]*ast.FuncDecl, 0, len(decls))
	acqs := make(map[*types.Func][]string, len(decls))
	callees := make(map[*types.Func][]*types.Func, len(decls))
	for fn, fd := range decls {
		ordered = append(ordered, fd)
		walkHeld(pass, fd.Body, func(l heldLock, _ heldSet) {
			if l.id != "" {
				acqs[fn] = union(acqs[fn], []string{l.id})
			}
		}, func(n ast.Node, _ heldSet) bool {
			if callee := staticCall(pass, n); callee != nil {
				callees[fn] = append(callees[fn], callee)
			}
			return true
		})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })
	acquires := calleeFixpoint(pass, lockAcqFact, acqs, callees, func(cur []string, _ bool, _ *types.Func, v []string) ([]string, bool) {
		next := union(cur, v)
		return next, len(next) > len(cur)
	})

	// Re-walk against the shared graph, adding held→acquired edges and
	// reporting the edge that closes a cycle.
	graph, _ := pass.Shared[lockGraphKey].(map[string]map[string]string)
	if graph == nil {
		graph = make(map[string]map[string]string)
		pass.Shared[lockGraphKey] = graph
	}
	reported, _ := pass.Shared[lockReportedKey].(map[string]bool)
	if reported == nil {
		reported = make(map[string]bool)
		pass.Shared[lockReportedKey] = reported
	}
	addEdges := func(held heldSet, to string, pos token.Pos) {
		for _, from := range held.ids() {
			if from == to {
				continue
			}
			if graph[from] == nil {
				graph[from] = make(map[string]string)
			}
			if _, seen := graph[from][to]; seen {
				continue // the cycle check ran when this edge first appeared
			}
			graph[from][to] = pass.Fset.Position(pos).String()
			if path := lockPath(graph, to, from); path != nil && !reported[from+"→"+to] {
				reported[from+"→"+to] = true
				full := append(path, to)
				pass.Reportf(pos, "lock order cycle: %s acquired while %s is held, but the reverse order exists: %s",
					to, from, strings.Join(full, " -> "))
			}
		}
	}
	for _, fd := range ordered {
		walkHeld(pass, fd.Body, func(l heldLock, held heldSet) {
			if l.id != "" {
				addEdges(held, l.id, l.pos)
			}
		}, func(n ast.Node, held heldSet) bool {
			if callee := staticCall(pass, n); callee != nil && len(held) > 0 {
				taken, _ := acquires(callee)
				for _, acq := range taken {
					addEdges(held, acq, n.Pos())
				}
			}
			return true
		})
	}
}

// staticCall returns the function a call node invokes statically, or nil.
func staticCall(pass *Pass, n ast.Node) *types.Func {
	if call, ok := n.(*ast.CallExpr); ok {
		return staticCallee(pass.Info, call)
	}
	return nil
}

// union returns the sorted, distinct union of two sets of lock identities.
func union(a, b []string) []string {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// lockPath returns the node sequence of a path from→…→to through the
// graph (inclusive of both endpoints), or nil when to is unreachable.
// Deterministic: neighbors are visited in sorted order.
func lockPath(graph map[string]map[string]string, from, to string) []string {
	seen := map[string]bool{from: true}
	var dfs func(cur string, path []string) []string
	dfs = func(cur string, path []string) []string {
		if cur == to {
			return path
		}
		next := make([]string, 0, len(graph[cur]))
		for n := range graph[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if seen[n] {
				continue
			}
			seen[n] = true
			if p := dfs(n, append(path, n)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, []string{from})
}

// namedOf unwraps pointers to the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
