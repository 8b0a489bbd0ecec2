// Package load turns `go list` package patterns into parsed, type-checked
// packages without depending on golang.org/x/tools/go/packages.
//
// The strategy is the one go/packages uses under the hood, reduced to what a
// linter over one repository needs: `go list -export -json -deps` enumerates
// the target packages and compiles their dependency closure, and the
// resulting gc export data feeds a go/importer lookup function, so only the
// target packages themselves are parsed and type-checked from source. Test
// files are excluded by construction (GoFiles never contains _test.go
// files), which is exactly the scope smartlint's invariants apply to; their
// paths are recorded for the checks that read tests as text (structure's
// name bans and test references), and a package with test files only is
// kept for them.
package load

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
	"strings"
)

// Package is one parsed, type-checked target package.
type Package struct {
	Path      string   // import path
	Module    string   // path of the module that holds the package
	Dir       string   // directory holding the source files
	TestFiles []string // absolute paths of the package's _test.go files, not parsed
	Fset      *token.FileSet
	Files     []*ast.File // parsed GoFiles, with comments
	Types     *types.Package
	TypesInfo *types.Info
}

// listError mirrors the Error field of `go list -e -json`.
type listError struct {
	Pos string
	Err string
}

// listPackage mirrors the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
	Standard     bool
	DepOnly      bool
	Error        *listError
}

// Load resolves patterns relative to dir (the analyzed module's root) and
// returns its matching packages, parsed and type-checked. Dependencies —
// including the standard library — are consumed as compiled export data,
// never parsed.
//
// GOWORK is forced off for the nested `go list`: the analyzed tree is
// always a plain module (the repo's main module, or a testdata module), and
// workspace files above it must not leak into resolution.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("go list %s: no packages matched", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range roots {
		if len(p.GoFiles)+len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue // a test-only package is kept for its test files
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		var tests []string
		for _, name := range append(p.TestGoFiles, p.XTestGoFiles...) {
			tests = append(tests, filepath.Join(p.Dir, name))
		}
		var module string
		if p.Module != nil {
			module = p.Module.Path
		}
		pkgs = append(pkgs, &Package{
			Path:      p.ImportPath,
			Module:    module,
			Dir:       p.Dir,
			TestFiles: tests,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}
