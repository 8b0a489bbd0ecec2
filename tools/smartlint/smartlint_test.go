package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"smartchain/tools/smartlint/analysistest"
	"smartchain/tools/smartlint/passes/structure"
)

// TestSuiteOverRepo is the smoke gate: the full analyzer suite and the
// structure check must load, type-check, and run over the real tree —
// the benchmark module included — without internal errors, and the tree
// must be clean: every finding either fixed or carrying a reviewed
// //smartlint:allow annotation. It runs ./..., as CI's Smartlint step does.
func TestSuiteOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole main module; skipped in -short mode")
	}
	res, err := lint("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("suite failed to run: %v", err)
	}
	if res.skipped != "" {
		t.Errorf("over the repository: %s", res.skipped)
	}
	for _, f := range res.findings {
		t.Errorf("%s: %s: %s", f.pos, f.analyzer, f.message)
	}
	line := budget(res.directives)
	for _, name := range []string{"errdrop", "structure", "verifyfirst"} {
		if !strings.Contains(line, name+" ") {
			t.Errorf("budget line %q does not count %s directives", line, name)
		}
	}
}

// TestStructureFixture runs the structure rows — structure.Rows, the table
// CI runs, not a copy — over testdata/structure, a module laid out like the
// repository, and holds every finding to the fixture's `want` comments:
// each row fires there, and //smartlint:allow applies to the check as to
// the analyzers (one allow suppresses one finding, a stale allow and an
// allow without a reason are findings).
func TestStructureFixture(t *testing.T) {
	const dir = "testdata/structure"
	res, err := lint(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	wants := fixtureWants(t, dir)
	for _, f := range res.findings {
		key := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(f.message) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s: %s", f.pos, f.analyzer, f.message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: expected a finding matching %q, got none", key, w.re)
			}
		}
	}

	prog, err := loadProgram(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range structure.Rows {
		got, err := structure.Check(prog.module, prog.pkgs, []structure.Row{r})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Errorf("row %d (form %c, %s) never fires on the fixture", i, r.Form, r.Decision)
		}
	}
}

// TestStructureRowsCannotGoVacuous renames the objects of every row that
// must find its target — a reference row, and a name ban that keeps the
// name in its Except packages — to names the fixture declares nowhere:
// each such row must then report that its target is gone, rather than
// pass without checking anything.
func TestStructureRowsCannotGoVacuous(t *testing.T) {
	prog, err := loadProgram("testdata/structure", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range structure.Rows {
		if len(r.Refs) == 0 || r.Form != structure.References && (r.Form != structure.NoDecl || len(r.Except) == 0) {
			continue
		}
		gone := r
		gone.Refs = nil
		for _, o := range r.Refs {
			o.Name += "Gone"
			gone.Refs = append(gone.Refs, o)
		}
		got, err := structure.Check(prog.module, prog.pkgs, []structure.Row{gone})
		if err != nil {
			t.Fatal(err)
		}
		reported := 0
		for _, f := range got {
			if f.Pos.Filename == "" && strings.Contains(f.Message, "declares") {
				reported++
			}
		}
		if reported != len(r.Refs) {
			t.Errorf("row %d (form %c, %s) with its targets renamed: %d of %d reported gone: %v",
				i, r.Form, r.Decision, reported, len(r.Refs), got)
		}
	}
}

// TestStructureSkippedOnPartialRun: a run over less than the whole program
// would see too few callers, so the structure check does not run, says
// so, and leaves its directives alone.
func TestStructureSkippedOnPartialRun(t *testing.T) {
	res, err := lint("testdata/structure", []string{"./internal/hooks"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.skipped, "structure check skipped") {
		t.Errorf("skipped note = %q", res.skipped)
	}
	for _, f := range res.findings {
		if f.analyzer == structure.Name || strings.Contains(f.message, "stale") {
			t.Errorf("%s: %s: %s", f.pos, f.analyzer, f.message)
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// fixtureWants reads every `want` expectation under dir, keyed by
// file:line. Test files and directive lines carry them too, so the fixture
// is scanned as text rather than through its comments' AST.
func fixtureWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, text, ok := strings.Cut(sc.Text(), " want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", abs, line)
			res, err := analysistest.Patterns(text)
			if err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
			for _, re := range res {
				wants[key] = append(wants[key], &want{re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}
