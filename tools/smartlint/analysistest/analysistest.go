// Package analysistest is a minimal golden-file test harness for smartlint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest: test
// packages live under testdata/src (one Go module, smartlint.test), and
// expected findings are declared inline with trailing comments:
//
//	ch := make(chan int) // want `unbuffered data channel`
//
// Each `want` carries one or more backquoted or quoted regular expressions;
// every reported diagnostic must match an expectation on its line and every
// expectation must be matched exactly once.
//
// Unlike upstream, the harness applies //smartlint:allow directive
// filtering before matching — the driver's suppression semantics are part
// of the contract under test, so a golden file demonstrates suppression by
// carrying an allow directive and no `want`.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"smartchain/tools/smartlint/analysis"
	"smartchain/tools/smartlint/internal/directive"
	"smartchain/tools/smartlint/internal/load"
)

// Run loads the packages matching patterns under srcdir (typically
// "testdata/src") and checks a's diagnostics — after allow-directive
// filtering — against the `// want` expectations in the sources.
func Run(t *testing.T, srcdir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := load.Load(srcdir, patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	known := map[string]bool{a.Name: true}
	for _, pkg := range pkgs {
		dirs, malformed := directive.Collect(pkg.Fset, pkg.Files, known)
		for _, m := range malformed {
			t.Errorf("%s: malformed directive: %s", m.Pos, m.Why)
		}

		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
		}

		wants := collectWants(t, pkg)
	diag:
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			for _, dir := range dirs {
				if dir.Suppresses(a.Name, pos.Filename, pos.Line) {
					dir.Used = true
					continue diag
				}
			}
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			matched := false
			for _, w := range wants[key] {
				if !w.used && w.re.MatchString(d.Message) {
					w.used = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for key, ws := range wants {
			for _, w := range ws {
				if !w.used {
					t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
				}
			}
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// collectWants parses `// want "re" ...` comments, keyed by file:line.
func collectWants(t *testing.T, pkg *load.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				res, err := Patterns(text)
				if err != nil {
					t.Fatalf("%s: %v", pos, err)
				}
				for _, re := range res {
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}

// Patterns compiles the backquoted or quoted regular expressions that
// follow "want " in an expectation comment.
func Patterns(text string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for _, pat := range splitPatterns(text) {
		unq, err := unquote(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", pat, err)
		}
		re, err := regexp.Compile(unq)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %s: %v", pat, err)
		}
		out = append(out, re)
	}
	return out, nil
}

// splitPatterns splits `"a" "b"` / “ `a` `b` “ into quoted tokens.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, s[:end+2])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

func unquote(s string) (string, error) {
	if strings.HasPrefix(s, "`") {
		return strings.Trim(s, "`"), nil
	}
	return strconv.Unquote(s)
}
