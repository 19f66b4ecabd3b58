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
	"strings"
	"sync"
)

// Package is one loaded, type-checked (non-test) package of the module.
type Package struct {
	// Path is the import path, e.g. "strudel/internal/features".
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Filenames lists the parsed files, sorted, parallel to Files.
	Filenames []string
	// Files holds the parsed syntax trees (comments included).
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records the type-checker's findings for Files.
	Info *types.Info

	// cfgs memoizes per-function control-flow graphs (see Pass.CFG) so
	// every analyzer in a run shares one graph per function.
	cfgs map[ast.Node]*CFG
}

// Loader parses and type-checks the packages of a single module without
// go/packages: module-internal imports are resolved recursively from the
// module root, everything else (the standard library) goes through a
// process-shared go/importer source importer. Module files all share the
// loader's token.FileSet, so positions from any module file are comparable;
// stdlib positions live in the shared importer's own FileSet (analyzers
// never report into the standard library, so those positions are unused).
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory holding go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
	// graph memoizes the module-wide call graph over every loaded package
	// (see Loader.CallGraph); loading another package invalidates it.
	graph *CallGraph
}

// NewLoader returns a loader for the module rooted at moduleRoot with the
// given module path.
func NewLoader(moduleRoot, modulePath string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	l.std = stdImporter()
	return l
}

// stdImporter returns the process-wide standard-library importer. Importing
// from source parses and type-checks the full dependency closure of every
// stdlib import, which dominates the cost of a load; the resulting
// *types.Package values are immutable for the life of the process, so one
// shared importer (with its own FileSet and package cache) serves every
// Loader — the moral equivalent of compiler export data. Access is
// serialized: the source importer's internal cache is not concurrency-safe.
var std struct {
	once sync.Once
	mu   sync.Mutex
	imp  types.ImporterFrom
}

func stdImporter() types.ImporterFrom {
	std.once.Do(func() {
		if imp, ok := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom); ok {
			std.imp = imp
		}
	})
	return std.imp
}

// FindModule walks up from dir to the nearest go.mod and returns the module
// root directory and declared module path.
func FindModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Dir returns the source directory of an import path inside the module.
func (l *Loader) dirOf(importPath string) (string, error) {
	if importPath == l.ModulePath {
		return l.ModuleRoot, nil
	}
	rel, ok := strings.CutPrefix(importPath, l.ModulePath+"/")
	if !ok {
		return "", fmt.Errorf("analysis: %s is not inside module %s", importPath, l.ModulePath)
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), nil
}

// Load parses and type-checks the package at the given module import path,
// memoizing the result. Test files (*_test.go) are excluded: the analyzers
// deliberately see only the shipped library and command code.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir, err := l.dirOf(importPath)
	if err != nil {
		return nil, err
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	p := &Package{Path: importPath, Dir: dir}
	for _, name := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Filenames = append(p.Filenames, name)
		p.Files = append(p.Files, file)
	}

	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: chainImporter{l}}
	tpkg, err := conf.Check(importPath, l.Fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p.Types = tpkg
	l.pkgs[importPath] = p
	l.graph = nil // the memoized call graph no longer covers every package
	return p, nil
}

// Loaded returns the already-loaded package for an import path, or nil. It
// lets analyzers peek at the syntax of dependency packages (featureparity
// resolves cross-package constants this way) without forcing new loads.
func (l *Loader) Loaded(importPath string) *Package {
	return l.pkgs[importPath]
}

// chainImporter resolves module-internal imports through the loader and
// delegates everything else to the stdlib source importer.
type chainImporter struct{ l *Loader }

func (c chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.l.ModuleRoot, 0)
}

func (c chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := c.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if l.std == nil {
		return nil, fmt.Errorf("analysis: no importer for %s", path)
	}
	std.mu.Lock()
	defer std.mu.Unlock()
	return l.std.ImportFrom(path, dir, mode)
}

// goFilesIn lists the non-test .go files of a directory, sorted, so parse
// order (and therefore everything downstream) is deterministic.
func goFilesIn(dir string) ([]string, error) {
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
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves command-line package patterns into module import paths.
// Supported shapes: "./...", "./dir/...", "./dir", ".", a bare module import
// path, or an absolute directory inside the module. Directories named
// "testdata", hidden directories, nested modules, and directories without
// buildable Go files are skipped.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = l.ModuleRoot
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			if dir == "." || strings.HasPrefix(dir, "./") || strings.HasPrefix(dir, "../") {
				abs, err := filepath.Abs(dir)
				if err != nil {
					return nil, err
				}
				dir = abs
			} else {
				// Treat as an import path.
				d, err := l.dirOf(pat)
				if err != nil {
					return nil, err
				}
				dir = d
			}
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", pat, l.ModulePath)
		}
		if !recursive {
			add(importPathFor(l.ModulePath, rel))
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != dir && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			if path != l.ModuleRoot {
				// A nested module is not part of this one, as with go's ./...
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			files, err := goFilesIn(path)
			if err != nil {
				return err
			}
			if len(files) == 0 {
				return nil
			}
			r, err := filepath.Rel(l.ModuleRoot, path)
			if err != nil {
				return err
			}
			add(importPathFor(l.ModulePath, r))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func importPathFor(modulePath, rel string) string {
	if rel == "." || rel == "" {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}
