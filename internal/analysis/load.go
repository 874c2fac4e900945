package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Dir is the directory the sources were read from.
	Dir string
	// Path is the import path (module-relative); fixture packages use
	// their bare directory name.
	Path string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by filename.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check problems. Analysis proceeds on
	// partial information; the driver surfaces these separately so a
	// broken tree cannot silently produce a green gate.
	TypeErrors []error
}

// Loader parses and type-checks package directories. One Loader
// shares a FileSet and an import cache across every package it loads,
// so the module's dependency graph is type-checked once.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader backed by the stdlib source importer,
// which resolves both standard-library and module-local imports from
// source — no network, no export data, no x/tools.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// LoadDir loads the package in dir under the given import path. Test
// files (_test.go) are excluded: the gate checks the production
// contracts; tests exercise them. So are files whose build constraints
// (//go:build lines, _GOOS/_GOARCH names) the host does not satisfy:
// the gate sees the package the compiler sees.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("read %s: %w", filepath.Join(dir, name), err)
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}

	pkg := &Package{Dir: dir, Path: importPath, Fset: l.fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", filepath.Join(dir, name), err)
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check fills Info maps for everything it can resolve even when it
	// returns an error; analyzers run on that partial information.
	pkg.Types, _ = conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// ModulePackages walks the module rooted at root (the directory
// holding go.mod) and returns the import paths of every package
// directory containing non-test Go files, sorted. testdata trees,
// hidden directories, and vendor are skipped, matching `./...`.
func ModulePackages(root string) ([]string, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var paths []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != importPath {
			paths = append(paths, importPath)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// WalkDir visits files of one directory contiguously, but dedupe
	// defensively in case of interleaving across nested dirs.
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

// PackageDir maps an import path back to its directory under root.
func PackageDir(root, modPath, importPath string) string {
	if importPath == modPath {
		return root
	}
	return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(importPath, modPath+"/")))
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
