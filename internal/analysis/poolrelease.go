package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolRelease enforces the session-ownership contract on the no-grad
// serving path: the result of an Acquire-family call
// (ag.AcquireEval(), tensor Pool.Acquire, …) must be handed back to
// its pool on every return path of the acquiring function — via
// `defer ReleaseEval(e)` / `defer h.Release()`, or an explicit
// release before each return. An evaluator that leaks keeps every
// pooled tensor it handed out pinned, and under serving load that is
// an unbounded memory leak (DESIGN §3/§6).
//
// Matching is by the Acquire/Release naming pair: a call to a
// function or method named "Acquire<X>" acquires; a call to
// "Release<X>" (free function taking the value, or method on it)
// releases. Explicit type arguments are looked through, so the generic
// pair ag.Acquire[T]() / ag.Release(e) is held to the same rule as
// ag.AcquireEval() / ag.ReleaseEval(e). Transferring ownership out — returning the value or
// storing it into a field, map, slice, or global — also discharges
// the obligation: the release duty moves with the value.
var PoolRelease = &Analyzer{
	Name: "poolrelease",
	Doc:  "every Acquire* result must be Release*d on all return paths of the acquiring function (session ownership)",
	Run:  runPoolRelease,
}

func runPoolRelease(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncAcquires(pass, fn)
		}
	}
	return nil
}

// acquireCall matches calls to functions/methods named Acquire or
// Acquire<X> and returns the release-counterpart name.
func acquireCall(pass *Pass, call *ast.CallExpr) (releaseName string, ok bool) {
	fn, isFn := calleeObject(pass.TypesInfo, call).(*types.Func)
	if !isFn {
		return "", false
	}
	suffix, isAcq := strings.CutPrefix(fn.Name(), "Acquire")
	if !isAcq {
		return "", false
	}
	// The result must be a single pooled value; Acquire-named helpers
	// returning nothing (or multiple values) are not the pattern.
	sig := fn.Signature()
	if sig.Results().Len() != 1 {
		return "", false
	}
	return "Release" + suffix, true
}

func checkFuncAcquires(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			// Bare `p.Acquire()` with the result dropped on the floor.
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if rel, ok := acquireCall(pass, call); ok {
					pass.Reportf(call.Pos(), "result of %s is discarded; bind it and release it with %s", callName(call), rel)
				}
			}
		case *ast.AssignStmt:
			checkAcquireAssign(pass, fn, stmt)
		}
		return true
	})
}

func checkAcquireAssign(pass *Pass, fn *ast.FuncDecl, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	releaseName, ok := acquireCall(pass, call)
	if !ok {
		return
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		// Stored straight into a field/index: ownership escapes.
		return
	}
	if lhs.Name == "_" {
		pass.Reportf(call.Pos(), "result of %s is discarded; bind it and release it with %s", callName(call), releaseName)
		return
	}
	obj := pass.TypesInfo.Defs[lhs]
	if obj == nil {
		obj = pass.TypesInfo.Uses[lhs]
	}
	if obj == nil {
		return
	}

	use := collectOwnershipUses(pass, fn, obj, releaseName, call.End())
	switch {
	case use.escapes:
		// Returned or stored: the obligation moved with the value.
	case use.deferredRelease:
		// defer Release covers every return path.
	case !use.released:
		pass.Reportf(call.Pos(), "result of %s is never released with %s in %s; defer %s immediately after acquiring", callName(call), releaseName, fn.Name.Name, releaseName)
	case use.unguardedReturn != token.NoPos:
		pass.Reportf(call.Pos(), "result of %s is not released with %s on the return path at line %d of %s; use defer %s to cover every path", callName(call), releaseName, pass.Fset.Position(use.unguardedReturn).Line, fn.Name.Name, releaseName)
	}
}

// ownershipUses is what the function body does with an acquired value
// after the acquire site.
type ownershipUses struct {
	released        bool
	deferredRelease bool
	escapes         bool
	// unguardedReturn is a return statement after the acquire with no
	// release call preceding it in source order (best-effort path
	// check without a CFG).
	unguardedReturn token.Pos
}

func collectOwnershipUses(pass *Pass, fn *ast.FuncDecl, obj types.Object, releaseName string, after token.Pos) ownershipUses {
	var use ownershipUses
	firstRelease := token.Pos(-1)
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	// escapesVia reports whether expr transfers ownership of the value
	// itself — the bare variable, or a composite/address-of literal
	// embedding it. Passing the value as an argument to a call does
	// not transfer ownership (the callee borrows it).
	var escapesVia func(expr ast.Expr) bool
	escapesVia = func(expr ast.Expr) bool {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[e] == obj
		case *ast.UnaryExpr:
			return escapesVia(e.X)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if escapesVia(elt) {
					return true
				}
			}
		}
		return false
	}
	isRelease := func(call *ast.CallExpr) bool {
		rel, ok := calleeObject(pass.TypesInfo, call).(*types.Func)
		if !ok || rel.Name() != releaseName {
			return false
		}
		// The released value is either an argument (pool.Release(e),
		// ReleaseEval(e)) or the receiver itself (h.Release()).
		for _, arg := range call.Args {
			if mentions(arg) {
				return true
			}
		}
		if sel, ok := calleeExpr(call).(*ast.SelectorExpr); ok && rel.Signature().Recv() != nil {
			return mentions(sel.X)
		}
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil || n.Pos() <= after {
			return true
		}
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			if isRelease(stmt.Call) {
				use.released, use.deferredRelease = true, true
			} else if mentions(stmt.Call) {
				// Deferred closure that releases inside its body.
				ast.Inspect(stmt.Call, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && isRelease(c) {
						use.released, use.deferredRelease = true, true
					}
					return true
				})
			}
		case *ast.CallExpr:
			if isRelease(stmt) {
				use.released = true
				if firstRelease < 0 || stmt.Pos() < firstRelease {
					firstRelease = stmt.Pos()
				}
			}
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				if escapesVia(res) {
					use.escapes = true
				}
			}
		case *ast.AssignStmt:
			// Storing the value into anything that is not a plain
			// local variable transfers ownership out of the function.
			for i, rhs := range stmt.Rhs {
				if !escapesVia(rhs) {
					continue
				}
				if i < len(stmt.Lhs) {
					if _, plain := stmt.Lhs[i].(*ast.Ident); !plain {
						use.escapes = true
					}
				}
			}
		case *ast.SendStmt:
			if escapesVia(stmt.Value) {
				use.escapes = true
			}
		}
		return true
	})
	// Best-effort all-paths check: a return after the acquire that
	// precedes the first (non-deferred) release leaks on that path.
	if use.released && !use.deferredRelease {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || ret.Pos() <= after {
				return true
			}
			if ret.Pos() < firstRelease && use.unguardedReturn == token.NoPos {
				use.unguardedReturn = ret.Pos()
			}
			return true
		})
	}
	return use
}

// callName renders the callee expression for diagnostics ("ag.AcquireEval").
func callName(call *ast.CallExpr) string {
	switch fn := calleeExpr(call).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	}
	return "acquire"
}
