package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path string // import path it was loaded under
	// GoVersion is the module's go directive ("1.22"), empty when
	// go.mod has none.
	GoVersion string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader parses and type-checks packages of this module from source.
// Imports inside the module resolve to directories under the module
// root; everything else (the standard library) is type-checked by the
// compiler-independent source importer. No export data, build cache or
// network access is needed, which keeps the tool stdlib-only.
type Loader struct {
	ModulePath string
	ModuleRoot string
	// GoVersion is go.mod's go directive ("1.22"), empty when absent.
	GoVersion string
	// IncludeTests adds _test.go files of the package itself (not
	// external _test packages) to the load. d2t2vet leaves this off:
	// the suite's checks target library code, and panicpolicy exempts
	// tests anyway.
	IncludeTests bool

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

// NewLoader finds the enclosing module of dir (the directory containing
// go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath, goVersion := "", ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok && modPath == "" {
			modPath = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok && goVersion == "" {
			goVersion = strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module clause in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		ModuleRoot: root,
		GoVersion:  goVersion,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*Package{},
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Expand resolves package patterns relative to the module root. "./..."
// (or "all") walks the whole module; "./x/..." walks a subtree; other
// arguments name single package directories. testdata, vendor and
// dot/underscore directories are skipped, matching the go tool.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !seen[path] && l.hasGoFiles(dir) {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		if pat == "all" {
			pat = "./..."
		}
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "./"
			}
		}
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			// A named (non-wildcard) package must exist: a typo'd path
			// silently matching nothing would report a green gate.
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				return nil, fmt.Errorf("analysis: %s: no such package directory", pat)
			}
			if !l.hasGoFiles(dir) {
				return nil, fmt.Errorf("analysis: %s: no Go files", pat)
			}
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") && !l.IncludeTests {
			continue
		}
		return true
	}
	return false
}

// buildConstraintSatisfied evaluates a file's //go:build line (if any)
// against the default build configuration the suite analyzes: current
// GOOS/GOARCH, the gc toolchain, any supported go1.N version, and NO
// optional tags. A `//go:build !race` file is analyzed; its `race`
// twin is skipped — without this, tag-paired files (internal/raceflag)
// would redeclare their symbols in one type-check. Legacy `// +build`
// lines without a //go:build line are rare enough in a gofmt'd module
// to ignore.
func buildConstraintSatisfied(src []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(src))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return true // malformed: let the parser complain
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || tag == "unix" || strings.HasPrefix(tag, "go1.")
			})
		}
		// The constraint block ends at the first non-comment, non-blank
		// line (the package clause at the latest).
		if line != "" && !strings.HasPrefix(line, "//") {
			return true
		}
	}
	return true
}

// Load type-checks the package at the given module import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", path, l.ModulePath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
}

// LoadDir type-checks the package in dir under the given import path.
// The path does not have to correspond to the directory layout; analyzer
// tests use this to load testdata fixtures as if they lived at scoped
// paths like d2t2/internal/model/fixture.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") && !l.IncludeTests {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// External test packages (package x_test) cannot be mixed into the
	// package proper; keep only files matching the majority package
	// clause of the non-test files.
	pkgName := files[0].Name.Name
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
			break
		}
	}
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	files = kept

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, GoVersion: l.GoVersion, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// moduleImporter resolves module-internal imports from source via the
// loader and delegates everything else to the stdlib source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
