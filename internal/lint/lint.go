// Package lint implements ntalint: a suite of static analyzers that enforce
// the invariants this codebase lives by but no off-the-shelf tool checks —
// persistence errors must not be dropped (a silently ignored Flush/Drain is a
// torn-crash bug), modeled results must be bit-identical across runs (no
// wall-clock or map-iteration order in the hot paths), the persistence paths
// must persist body before header (a header vouching for missing contents is
// the torn-bootstrap bug fault injection once caught), and mutex-guarded
// coordinator state must be accessed under its lock.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature —
// Analyzer, Pass, Reportf, testdata fixtures with `// want` expectations —
// but is built on the standard library alone (go/ast, go/types, and
// `go list -export` for dependency export data), so the module stays
// dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string

	// SkipTests excludes _test.go files from the analysis.  Checks over
	// modeled-result determinism and lock discipline skip tests (tests use
	// wall-clock timeouts and single-threaded field pokes deliberately);
	// persistcheck runs over tests too, as the retired grep did.
	SkipTests bool

	Run func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	PkgPath  string
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{PersistCheck, DetermCheck, PublishCheck, GuardCheck}
}

// ByName resolves a comma-separated analyzer list ("persistcheck,guardcheck").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no analyzers selected")
	}
	return out, nil
}

// Run executes the analyzers over the packages, applies ntalint:ignore
// suppressions, and returns the surviving diagnostics in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		sup, supDiags := collectSuppressions(pkg)
		diags = append(diags, supDiags...)
		for _, a := range analyzers {
			files := pkg.Files
			if a.SkipTests {
				files = files[:0:0]
				for _, f := range pkg.Files {
					if !pkg.TestFile[f] {
						files = append(files, f)
					}
				}
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				PkgPath:  pkg.PkgPath,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				if !sup.suppressed(d) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Suppressions: a finding is acknowledged, never silently dropped.  An
//
//	//ntalint:ignore <analyzer> <justification>
//
// comment suppresses that analyzer's findings on the same line, or — when
// the directive stands on a line of its own — on the first following line
// that holds code.  The justification is mandatory: the point of the
// mechanism is that every surviving irregularity carries its reason inline.
type suppressionSet struct {
	// byFileLine maps file -> line -> analyzers suppressed at that line.
	byFileLine map[string]map[int]map[string]bool
}

var ignoreRE = regexp.MustCompile(`^//\s*ntalint:ignore\s+(\S+)\s*(.*)$`)

func collectSuppressions(pkg *Package) (*suppressionSet, []Diagnostic) {
	sup := &suppressionSet{byFileLine: make(map[string]map[int]map[string]bool)}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					diags = append(diags, Diagnostic{
						Analyzer: "ntalint",
						Pos:      pos,
						Message:  "ntalint:ignore directive needs a justification: //ntalint:ignore <analyzer> <reason>",
					})
					continue
				}
				line := pos.Line
				if pos.Column == 1 || isOwnLine(tf, f, c) {
					// Directive on its own line covers the next line.
					line++
				}
				fl := sup.byFileLine[pos.Filename]
				if fl == nil {
					fl = make(map[int]map[string]bool)
					sup.byFileLine[pos.Filename] = fl
				}
				for _, l := range []int{pos.Line, line} {
					if fl[l] == nil {
						fl[l] = make(map[string]bool)
					}
					fl[l][m[1]] = true
				}
			}
		}
	}
	return sup, diags
}

// isOwnLine reports whether comment c is the only token on its line.
func isOwnLine(tf *token.File, f *ast.File, c *ast.Comment) bool {
	line := tf.Line(c.Pos())
	own := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !own {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return true
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return true
		}
		if n.Pos().IsValid() && n.End() <= c.Pos() && tf.Line(n.End()-1) == line {
			own = false
		}
		return true
	})
	return own
}

func (s *suppressionSet) suppressed(d Diagnostic) bool {
	fl := s.byFileLine[d.Pos.Filename]
	if fl == nil {
		return false
	}
	return fl[d.Pos.Line][d.Analyzer]
}

// --- small shared helpers -------------------------------------------------

// pkgTail returns the last element of a package path: the analyzers scope
// themselves by it ("internal/pmem" and a fixture's "publish/pmem" are both
// "pmem"), which is what lets testdata packages stand in for the real tree.
func pkgTail(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// exprText renders a (simple) expression as its source text — the canonical
// spelling guardcheck uses to match lock paths ("se.ingestMu", "d.mu").
// Expressions it cannot render canonically come back as "".
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprText(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		base := exprText(e.X)
		idx := exprText(e.Index)
		if base == "" {
			return ""
		}
		if idx == "" {
			if lit, ok := e.Index.(*ast.BasicLit); ok {
				idx = lit.Value
			} else {
				return ""
			}
		}
		return base + "[" + idx + "]"
	case *ast.StarExpr:
		return exprText(e.X)
	}
	return ""
}

// methodOf resolves the called method of a call expression: the *types.Func
// for x.M(...) whether M is a concrete method, a promoted one, or an
// interface method.  Returns nil for non-method calls.
func methodOf(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil {
		if f, ok := s.Obj().(*types.Func); ok {
			return f
		}
		return nil
	}
	// Package-qualified call (pkg.F): not a method.
	return nil
}

// funcOf resolves a called package-level function (pkg.F or F).
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if info.Selections[fun] != nil {
			return nil // method, not package function
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// errorReturning reports whether fn's last result is error.
func errorReturning(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return last.String() == "error"
}
