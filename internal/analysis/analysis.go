// Package analysis is the repo's static-analysis gate: four custom
// analyzers that turn the codebase's load-bearing contracts —
// bitwise-reproducible training, atomic CRC-framed artifact IO, and
// pooled-session ownership on the no-grad serving path — into
// machine-checked invariants. The cmd/mtmlf-vet multichecker runs
// them over the whole module (`make vet-custom`); each analyzer also
// ships analysistest-style fixture packages under testdata/src.
//
// The framework deliberately mirrors the golang.org/x/tools
// go/analysis API shape (Analyzer, Pass, Diagnostic, testdata `//
// want` fixtures) but is built on the standard library alone
// (go/ast, go/types, go/importer), so the gate needs no module
// downloads to run.
//
// Escape hatch: a violation that is genuinely safe carries a
// justification comment on its line or the line above —
// `//mtmlf:unordered-ok` for map iteration whose order provably
// cannot reach an artifact or a trajectory, or the generic
// `//mtmlf:allow:<analyzer> <reason>` for the other analyzers. Every
// suppression is visible in the diff and greppable; the count at any
// commit is the honest baseline.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check. Run inspects a fully loaded package
// via the Pass and reports diagnostics through it.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph contract statement shown by
	// `mtmlf-vet -help`.
	Doc string
	Run func(*Pass) error
	// SuppressAliases are extra justification-comment directives (in
	// addition to the generic "allow:<name>") that silence this
	// analyzer, e.g. "unordered-ok" for mapiter.
	SuppressAliases []string
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one loaded package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the import path ("mtmlf/internal/corpus"); fixture
	// packages use their bare directory name.
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info

	diags      []Diagnostic
	suppressed map[string]map[int]bool // filename -> set of suppressed lines
}

// Reportf records a diagnostic at pos unless a justification comment
// suppresses that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.lineSuppressed(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// lineSuppressed reports whether a suppression comment for this
// analyzer sits on the diagnostic's line or the line directly above.
func (p *Pass) lineSuppressed(pos token.Position) bool {
	lines := p.suppressed[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// buildSuppressions indexes every //mtmlf: directive comment that
// names this analyzer, by file and line.
func (p *Pass) buildSuppressions() {
	p.suppressed = make(map[string]map[int]bool)
	directives := []string{"allow:" + p.Analyzer.Name}
	directives = append(directives, p.Analyzer.SuppressAliases...)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//mtmlf:")
				if !ok {
					continue
				}
				for _, d := range directives {
					if text == d || strings.HasPrefix(text, d+" ") {
						position := p.Fset.Position(c.Pos())
						m := p.suppressed[position.Filename]
						if m == nil {
							m = make(map[int]bool)
							p.suppressed[position.Filename] = m
						}
						m[position.Line] = true
					}
				}
			}
		}
	}
}

// RunAnalyzer applies a to pkg and returns its diagnostics sorted in
// source order.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		PkgPath:   pkg.Path,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	pass.buildSuppressions()
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return pass.diags, nil
}

// All returns the four analyzers in their canonical report order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, GlobalRand, AtomicWrite, PoolRelease}
}

// calleeExpr returns the expression naming the function call calls,
// with parentheses and any explicit type arguments (f[T](...),
// pkg.F[K, V](...)) stripped.
func calleeExpr(call *ast.CallExpr) ast.Expr {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.IndexExpr:
		return ast.Unparen(fn.X)
	case *ast.IndexListExpr:
		return ast.Unparen(fn.X)
	default:
		return fn
	}
}

// calleeObject resolves the called function or method of call, or nil
// for dynamic/unresolvable calls.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := calleeExpr(call).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the package-scope function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	if fn.Pkg().Path() != pkgPath {
		return false
	}
	// Package-scope only: methods carry a receiver.
	return fn.Signature().Recv() == nil
}
