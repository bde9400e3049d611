package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapFreeze enforces the epoch/RCU snapshot discipline PR 7 built the hot
// path on: a type annotated //genas:frozen (the tree snapshot Node/Edge,
// the match-set buckets, the poset image agg.Snapshot) is immutable once a
// value escapes its construction — publishers load snapshots lock-free, so
// any later write is a data race. Writes are only legal inside functions
// annotated //genas:builder, the designated construction/transform sites
// that operate on not-yet-published values.
//
// Flagged shapes, in any non-builder function: a field write, a
// slice-element or map store, a write through a pointer deref, an IncDec,
// and an append or copy whose destination belongs to a frozen value
// (append can write the shared backing array in place). Detection is by
// type, so writes through aliases (`e := &n.edges[i]; e.Child = c`) are
// caught too. Frozen-type facts cross packages: a type frozen in
// internal/tree is protected inside internal/core.
var SnapFreeze = &Analyzer{
	Name: "snapfreeze",
	Doc:  "types marked //genas:frozen are written only inside //genas:builder functions",
	Run:  runSnapFreeze,
}

// frozenFact keys a frozen type in Pass.Shared: "frozen:<pkgpath>.<Type>".
func frozenFact(pkgPath, name string) string { return "frozen:" + pkgPath + "." + name }

func runSnapFreeze(pass *Pass) {
	collectFrozenTypes(pass)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasDirective(fd.Doc, BuilderMarker) {
				continue
			}
			checkFrozenWrites(pass, fd.Body)
		}
	}
}

// collectFrozenTypes publishes a fact for every type declaration in the
// package annotated //genas:frozen — on the type spec itself or on its
// enclosing declaration group.
func collectFrozenTypes(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declFrozen := hasDirective(gd.Doc, FrozenMarker)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if declFrozen || hasDirective(ts.Doc, FrozenMarker) {
					pass.Shared[frozenFact(pass.Pkg.Path(), ts.Name.Name)] = true
				}
			}
		}
	}
}

// checkFrozenWrites walks one non-builder function body and reports every
// mutation that lands in a frozen value.
func checkFrozenWrites(pass *Pass, body *ast.BlockStmt) {
	// x = append(x, ...) would fire twice — once for the store, once for
	// the append destination; the assignment handler marks direct-RHS
	// append/copy calls it already accounted for.
	handled := make(map[ast.Node]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				fired := false
				if n.Tok != token.DEFINE {
					if name, ok := frozenWriteTarget(pass, lhs); ok {
						pass.Reportf(lhs.Pos(), "write to frozen type %s outside a //genas:builder function", name)
						fired = true
					}
				}
				// Mark the matching RHS append/copy as handled when the
				// store itself fired on the same frozen value (the grow-in-
				// place idiom); a DEFINE keeps the append check live since
				// append can still mutate a frozen backing array.
				if fired && len(n.Rhs) == len(n.Lhs) {
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
						handled[call] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if name, ok := frozenWriteTarget(pass, n.X); ok {
				pass.Reportf(n.X.Pos(), "write to frozen type %s outside a //genas:builder function", name)
			}
		case *ast.CallExpr:
			if handled[n] {
				return true
			}
			dst, what := mutatingBuiltinDst(pass, n)
			if dst == nil {
				return true
			}
			if name, ok := frozenMutationBase(pass, dst); ok {
				pass.Reportf(n.Pos(), "%s writes into frozen type %s outside a //genas:builder function", what, name)
			}
		}
		return true
	})
}

// mutatingBuiltinDst returns the destination operand of a builtin append
// or copy call, the two builtins that write through a slice argument.
func mutatingBuiltinDst(pass *Pass, call *ast.CallExpr) (ast.Expr, string) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return nil, ""
	}
	if obj, ok := pass.Info.Uses[id].(*types.Builtin); !ok || (obj.Name() != "append" && obj.Name() != "copy") {
		return nil, ""
	}
	return call.Args[0], id.Name
}

// frozenWriteTarget reports whether writing through expr mutates a frozen
// value: the expression must reach through a container — a field selection,
// an index, or a pointer deref — whose base is of (or aliases into) a
// frozen type. A bare identifier is a rebinding, not a mutation.
func frozenWriteTarget(pass *Pass, expr ast.Expr) (string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if name, ok := frozenTypeOf(pass, e.X); ok {
			return name, true
		}
		return frozenWriteTarget(pass, e.X)
	case *ast.IndexExpr:
		if name, ok := frozenTypeOf(pass, e.X); ok {
			return name, true
		}
		return frozenWriteTarget(pass, e.X)
	case *ast.StarExpr:
		if name, ok := frozenTypeOf(pass, e.X); ok {
			return name, true
		}
		return frozenWriteTarget(pass, e.X)
	}
	return "", false
}

// frozenMutationBase is frozenWriteTarget for builtin destinations: the
// slice operand itself counts when its elements (or the value owning its
// backing array) are frozen — append(e.Profiles, p) may write Edge's
// array in place even though e.Profiles is a plain []int.
func frozenMutationBase(pass *Pass, expr ast.Expr) (string, bool) {
	if name, ok := frozenTypeOf(pass, expr); ok {
		return name, true
	}
	return frozenWriteTarget(pass, expr)
}

// frozenTypeOf resolves expr's type, unwrapping pointers and slice/array
// element layers, and reports the frozen named type it lands on, if any.
// A slice of pointers stops the unwrap: storing into such a slice writes
// pointer slots, not the frozen pointees (the []*Node traversal-stack
// shape), whereas a slice of frozen values shares their backing array.
func frozenTypeOf(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[ast.Unparen(expr)]
	if !ok {
		return "", false
	}
	t := tv.Type
	for {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			if _, ptrElem := u.Elem().Underlying().(*types.Pointer); ptrElem {
				return "", false
			}
			t = u.Elem()
			continue
		case *types.Array:
			if _, ptrElem := u.Elem().Underlying().(*types.Pointer); ptrElem {
				return "", false
			}
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	if _, frozen := pass.Shared[frozenFact(obj.Pkg().Path(), obj.Name())]; !frozen {
		return "", false
	}
	return obj.Pkg().Name() + "." + obj.Name(), true
}
