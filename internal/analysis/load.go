package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked package of the module (or a test
// fixture loaded against the module).
type Package struct {
	Path  string // import path ("dtm/internal/greedy")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages in dependency order.
// Stdlib (and any other extra-module) imports resolve through the
// compiler's export data, falling back to type-checking from source, so
// loading works without network access or a populated module cache.
// Test files (*_test.go) are not loaded: dtmlint checks shipped code.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root (directory containing go.mod)
	modpath string // module path from go.mod

	pkgs    map[string]*Package
	loading map[string]bool
	ext     map[string]*types.Package // extra-module import cache
	gcImp   types.Importer
	srcImp  types.Importer
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modpath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    abs,
		modpath: modpath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		ext:     make(map[string]*types.Package),
		gcImp:   importer.Default(),
		srcImp:  importer.ForCompiler(fset, "source", nil),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// modulePath reads the `module` line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(mp); err == nil {
				mp = unq
			}
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// LoadAll loads every package of the module (skipping testdata, hidden
// directories, and test files), returned sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.load(l.dirToPath(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir loads a single directory (e.g. an analysistest fixture) under a
// synthetic import path, resolving its module imports normally.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, importPath)
}

func (l *Loader) dirToPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modpath
	}
	return l.modpath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) pathToDir(path string) string {
	if path == l.modpath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// load loads (or returns the cached) module package for an import path.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.loadDir(l.pathToDir(path), path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// Load module dependencies first so type-checking sees them.
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.inModule(ip) {
				if _, err := l.load(ip); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) { return l.importPkg(ip) }),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

func (l *Loader) inModule(importPath string) bool {
	return importPath == l.modpath || strings.HasPrefix(importPath, l.modpath+"/")
}

// importPkg resolves one import: module packages recurse through the
// loader; anything else goes through export data, then the source
// importer as a fallback.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if p, ok := l.ext[path]; ok {
		return p, nil
	}
	p, err := l.gcImp.Import(path)
	if err != nil {
		p, err = l.srcImp.Import(path)
		if err != nil {
			return nil, fmt.Errorf("analysis: importing %s: %w", path, err)
		}
	}
	l.ext[path] = p
	return p, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
