package lint

import (
	"go/ast"
	"go/types"
)

// PersistCheck flags persistence-path calls whose error result is dropped.
//
// It is the type-aware replacement for the Makefile's line-regex errcheck:
// the grep only matched a bare single-line call statement, so a multi-line
// call, a call in expression position whose error lands in `_`, a `go` or
// `defer` statement, or a call through an interface or type alias all slipped
// past it.  Here the rule is semantic: any call that resolves to a
// persistence method of the nvm / pmem / core (op-log) packages and returns
// an error must have that error consumed — propagated, inspected, or passed
// along (tests wrap theirs in must(t, ...)).  Assigning it to `_` counts as
// dropping it: a deliberate drop needs an //ntalint:ignore with its reason.
var PersistCheck = &Analyzer{
	Name: "persistcheck",
	Doc:  "flags dropped errors from nvm/pmem/op-log persistence methods",
	Run:  runPersistCheck,
}

// persistMethods is the persistence surface: the flush/fence/commit family
// whose errors are exactly the torn-crash bugs crashcheck exists to catch.
// Matching is by method name within the persistence packages (nvm, pmem,
// core), and only methods returning an error are considered, so same-named
// helpers elsewhere are untouched.
var persistMethods = map[string]bool{
	// Device persistence pipeline.
	"Crash": true, "CrashAt": true, "Drain": true,
	"Flush": true, "FlushAll": true,
	// Pool / header persistence.
	"FlushHeader": true, "Checkpoint": true, "Commit": true,
	// Durable-store internals.
	"Persist": true, "Sync": true,
	"persist": true, "sync": true, "flushHeader": true,
	// Op-log and redo-log internals.
	"append": true, "appendAlloc": true, "stageEntry": true,
	"commit": true, "compact": true, "reset": true,
	"format": true, "recover": true,
}

// persistPackages are the package-path tails whose methods are in scope.
var persistPackages = map[string]bool{"nvm": true, "pmem": true, "core": true}

func runPersistCheck(pass *Pass) error {
	for _, f := range pass.Files {
		// Walk with enough context to know how each call's results are used.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					reportIfPersist(pass, call, "dropped")
				}
			case *ast.GoStmt:
				reportIfPersist(pass, n.Call, "dropped by go statement")
			case *ast.DeferStmt:
				reportIfPersist(pass, n.Call, "dropped by defer")
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags persistence errors assigned to the blank identifier.
func checkAssign(pass *Pass, as *ast.AssignStmt) {
	// Single call on the RHS: results map positionally onto the LHS.
	if len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fn := persistCallee(pass, call)
		if fn == nil {
			return
		}
		sig := fn.Type().(*types.Signature)
		errIdx := sig.Results().Len() - 1
		if len(as.Lhs) == 1 && sig.Results().Len() > 1 {
			return // whole tuple captured into one value? not legal Go; ignore
		}
		if errIdx < len(as.Lhs) && isBlank(as.Lhs[errIdx]) {
			pass.Reportf(call.Pos(), "error from (%s).%s assigned to _: persistence errors must be handled (//ntalint:ignore persistcheck <reason> to drop deliberately)",
				recvOrPkg(fn), fn.Name())
		}
		return
	}
	// Parallel assignment: each RHS call maps to one LHS.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		if fn := persistCallee(pass, call); fn != nil {
			pass.Reportf(call.Pos(), "error from (%s).%s assigned to _: persistence errors must be handled (//ntalint:ignore persistcheck <reason> to drop deliberately)",
				recvOrPkg(fn), fn.Name())
		}
	}
}

func reportIfPersist(pass *Pass, call *ast.CallExpr, how string) {
	if fn := persistCallee(pass, call); fn != nil {
		pass.Reportf(call.Pos(), "error from (%s).%s %s: persistence errors must be handled (//ntalint:ignore persistcheck <reason> to drop deliberately)",
			recvOrPkg(fn), fn.Name(), how)
	}
}

// persistCallee returns the called persistence method, or nil if the call is
// out of scope.
func persistCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := methodOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if !persistMethods[fn.Name()] || !persistPackages[pkgTail(fn.Pkg().Path())] {
		return nil
	}
	if !errorReturning(fn) {
		return nil
	}
	return fn
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// recvOrPkg names the method's receiver type for diagnostics.
func recvOrPkg(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg()))
	}
	return fn.Pkg().Path()
}
