package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// GuardCheck verifies `// guarded by <mu>` field annotations: every access
// to an annotated field must happen while the named sibling mutex is held.
// The sharded coordinator and the serving cuts (core/sharded.go,
// core/ingest.go), the shared-mode device (nvm/sim.go), the dictionary's
// words and lazy word index (dict/dict.go), the daemon's session pool,
// result cache and coalescer (server/pool.go, cache.go, coalesce.go) and the
// engine's name table and committed vocabulary (engine.go) carry these
// annotations — the lock discipline there is load-bearing (appends,
// compactions and concurrent query sessions all run through it) and was
// previously enforced only by comment and code review.
//
// The analysis is lexical within each function, mirroring how the code is
// actually written: a mutex counts as held from an `x.mu.Lock()` (or RLock)
// statement to the matching `Unlock` — or to the end of the function when
// the unlock is deferred.  Accesses are exempt when
//
//   - the function's name ends in "Locked" or its doc comment says
//     "caller holds" / "<mu> held" (the callee documents its contract);
//   - the accessed object is a local built in this function (composite
//     literal or a New*/new* constructor call): not yet shared;
//   - the access is inside a composite literal key (field names, not reads).
//
// Anything else is flagged; single-owner phases that deliberately skip the
// lock (construction, teardown) document themselves with
// //ntalint:ignore guardcheck <reason>.
var GuardCheck = &Analyzer{
	Name:      "guardcheck",
	Doc:       "checks that fields annotated `guarded by <mu>` are accessed under their mutex",
	SkipTests: true,
	Run:       runGuardCheck,
}

var guardedByRE = regexp.MustCompile(`(?i)guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\b`)

func runGuardCheck(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fnAssumesLock(fd) {
				continue
			}
			checkGuardedAccesses(pass, fd, guarded)
		}
	}
	return nil
}

// collectGuardedFields maps each annotated struct field object to the name
// of its guarding mutex field.
func collectGuardedFields(pass *Pass) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardAnnotation extracts the mutex name from a field's doc or line comment.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// fnAssumesLock reports whether the function declares that its caller holds
// the lock: name suffix "Locked" or a doc comment saying so.
func fnAssumesLock(fd *ast.FuncDecl) bool {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	if fd.Doc != nil {
		doc := strings.ToLower(fd.Doc.Text())
		if strings.Contains(doc, "caller holds") || strings.Contains(doc, "held)") ||
			strings.Contains(doc, "held by the caller") || strings.Contains(doc, "mu held") {
			return true
		}
	}
	return false
}

// lockEvent is one Lock/Unlock call in source order.
type lockEvent struct {
	pos      token.Pos
	path     string // canonical mutex path, e.g. "se.ingestMu"
	lock     bool
	deferred bool
}

// checkGuardedAccesses walks one function, replaying Lock/Unlock events in
// source order and flagging annotated-field accesses outside the window.
func checkGuardedAccesses(pass *Pass, fd *ast.FuncDecl, guarded map[types.Object]string) {
	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if path, lock, ok := lockCall(n.Call); ok {
				events = append(events, lockEvent{pos: n.Pos(), path: path, lock: lock, deferred: true})
			}
			return false // don't double-count the inner call
		case *ast.CallExpr:
			if path, lock, ok := lockCall(n); ok {
				events = append(events, lockEvent{pos: n.Pos(), path: path, lock: lock})
			}
		}
		return true
	})

	locals := localConstructions(pass, fd)

	// Field names used as composite-literal keys are plain identifiers, not
	// selector expressions, so initializations like &Shared{data: b} are
	// naturally out of scope here.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		checkSelector(pass, n, fd, guarded, events, locals)
		return true
	})
}

// checkSelector flags n if it is an unguarded access to an annotated field.
func checkSelector(pass *Pass, n ast.Node, fd *ast.FuncDecl, guarded map[types.Object]string,
	events []lockEvent, locals map[types.Object]bool) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	// For promoted/chained selections, the annotated field is the final one.
	obj := s.Obj()
	mu, ok := guarded[obj]
	if !ok {
		return
	}
	base := exprText(sel.X)
	if base == "" {
		return // un-renderable base: give the access the benefit of the doubt
	}
	// A value constructed locally is not yet shared.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if o := pass.Info.Uses[id]; o != nil && locals[o] {
			return
		}
	}
	want := base + "." + mu
	if !heldAt(events, sel.Pos(), want) {
		pass.Reportf(sel.Pos(), "%s accessed without holding %s (field is marked `guarded by %s`; lock it, rename the function *Locked, or //ntalint:ignore guardcheck <reason>)",
			base+"."+obj.Name(), want, mu)
	}
}

// heldAt replays the lock events lexically preceding pos and reports whether
// the mutex at path is held there.  Deferred unlocks never release within
// the function body.
func heldAt(events []lockEvent, pos token.Pos, path string) bool {
	held := false
	for _, ev := range events {
		if ev.pos >= pos {
			break
		}
		if ev.path != path {
			continue
		}
		if ev.lock {
			held = true
		} else if !ev.deferred {
			held = false
		}
	}
	return held
}

// lockCall recognizes X.Lock/RLock/Unlock/RUnlock() and returns the canonical
// path of X and whether it acquires.
func lockCall(call *ast.CallExpr) (path string, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return "", false, false
	}
	path = exprText(sel.X)
	if path == "" {
		return "", false, false
	}
	return path, lock, true
}

// localConstructions collects local variables initialized in this function
// from a composite literal or a constructor-shaped call (New*/new*/Open*):
// values that cannot yet be shared with another goroutine.
func localConstructions(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" || i >= len(as.Rhs) && len(as.Rhs) != 1 {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			if !isConstruction(rhs) {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})
	return locals
}

// isConstruction recognizes &T{...}, T{...}, and New*/new*/Open* calls.
func isConstruction(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := e.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		name := ""
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
			strings.HasPrefix(name, "Open")
	}
	return false
}
