package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked unit ready for analysis. For packages
// with in-package test files the unit is the test-augmented variant
// (GoFiles + TestGoFiles), so analyzers police test code too; external
// test packages (package foo_test) become their own unit.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ImportMap    map[string]string
	Deps         []string
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

// loader resolves imports for source type-checking: module packages from
// source (memoized), everything else from compiler export data.
type loader struct {
	dir    string
	fset   *token.FileSet
	byPath map[string]*listPkg
	gc     types.Importer
	src    map[string]*types.Package // memoized module packages (GoFiles only)
}

// Load lists patterns with the go command and returns one analysis unit
// per matched package (plus an external-test unit where one exists). dir
// is the module root to run the go command in ("" = current directory).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// The match list first: -deps pulls the whole universe into the same
	// stream, so the loader needs to know which packages were actually
	// requested.
	out, err := runGo(dir, append([]string{"list"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var targets []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			targets = append(targets, line)
		}
	}

	// The universe: -test includes test-only dependencies (testing, …),
	// -export materializes compiler export data for every non-target so
	// imports resolve without type-checking the standard library.
	out, err = runGo(dir, append([]string{"list", "-deps", "-test", "-export", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	l := &loader{
		dir:    dir,
		fset:   token.NewFileSet(),
		byPath: make(map[string]*listPkg),
		src:    make(map[string]*types.Package),
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if strings.Contains(p.ImportPath, " [") || strings.HasSuffix(p.ImportPath, ".test") {
			continue // test-binary variants; the loader builds its own augmented units
		}
		if prev, ok := l.byPath[p.ImportPath]; ok && prev.Export != "" {
			continue
		}
		cp := p
		l.byPath[p.ImportPath] = &cp
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		e := l.byPath[path]
		if e == nil || e.Export == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(e.Export)
	})

	var units []*Package
	for _, path := range targets {
		e := l.byPath[path]
		if e == nil {
			return nil, fmt.Errorf("analysis: pattern matched %q but go list -deps did not describe it", path)
		}
		if e.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", path, e.Error.Err)
		}
		if len(e.GoFiles) == 0 && len(e.XTestGoFiles) == 0 {
			continue
		}
		aug, err := l.check(e, absFiles(e, append(append([]string{}, e.GoFiles...), e.TestGoFiles...)), nil)
		if err != nil {
			return nil, err
		}
		units = append(units, aug)
		if len(e.XTestGoFiles) > 0 {
			// The external test package imports the augmented variant of
			// its subject, like the real test binary does.
			xt, err := l.check(e, absFiles(e, e.XTestGoFiles),
				map[string]*types.Package{e.ImportPath: aug.Pkg})
			if err != nil {
				return nil, err
			}
			xt.PkgPath = e.ImportPath + "_test"
			units = append(units, xt)
		}
	}
	return units, nil
}

func absFiles(e *listPkg, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(e.Dir, n)
		}
	}
	return out
}

// check parses and type-checks one unit from source.
func (l *loader) check(e *listPkg, files []string, overlay map[string]*types.Package) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		syntax = append(syntax, af)
	}
	info := newInfo()
	conf := types.Config{
		Importer: &unitImporter{l: l, importMap: e.ImportMap, overlay: overlay},
	}
	pkg, err := conf.Check(e.ImportPath, l.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", e.ImportPath, err)
	}
	return &Package{PkgPath: e.ImportPath, Fset: l.fset, Files: syntax, Pkg: pkg, TypesInfo: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// unitImporter resolves one unit's imports: overlay first (the augmented
// subject for an external test package), then module source, then export
// data.
type unitImporter struct {
	l         *loader
	importMap map[string]string
	overlay   map[string]*types.Package
}

func (im *unitImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if p, ok := im.overlay[path]; ok {
		return p, nil
	}
	if e := im.l.byPath[path]; e != nil && e.Module != nil && im.reachesOverlay(e) {
		// A module package that imports the augmented subject is
		// re-checked against it, as the test binary recompiles it, so the
		// external test sees one subject package, not two.
		u, err := im.l.check(e, absFiles(e, e.GoFiles), im.overlay)
		if err != nil {
			return nil, err
		}
		im.overlay[path] = u.Pkg
		return u.Pkg, nil
	}
	return im.l.importPath(path)
}

// reachesOverlay reports whether e depends on an overlaid package.
func (im *unitImporter) reachesOverlay(e *listPkg) bool {
	for _, d := range e.Deps {
		if _, ok := im.overlay[d]; ok {
			return true
		}
	}
	return false
}

func (l *loader) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	e := l.byPath[path]
	if e == nil {
		return nil, fmt.Errorf("analysis: unknown import %q", path)
	}
	if e.Standard || e.Module == nil {
		return l.gc.Import(path)
	}
	if p, ok := l.src[path]; ok {
		return p, nil
	}
	u, err := l.check(e, absFiles(e, e.GoFiles), nil)
	if err != nil {
		return nil, err
	}
	l.src[path] = u.Pkg
	return u.Pkg, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// RunAnalyzers applies every analyzer to every unit, then every
// module-scoped analyzer (RunModule) once over the whole load, and
// returns the diagnostics sorted by position. dir is the module root the
// load ran in ("" = current directory).
func RunAnalyzers(dir string, units []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.TypesInfo,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				d.Analyzer = name
				diags = append(diags, d)
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, u.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		ds, err := a.RunModule(dir, units)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s (module pass): %w", a.Name, err)
		}
		for _, d := range ds {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
