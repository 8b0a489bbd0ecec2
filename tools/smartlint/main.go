// Command smartlint runs the repo's custom invariant analyzers over Go
// package patterns and fails on any unannotated finding.
//
// Usage, from the repository root, as CI's Smartlint step runs it:
//
//	go run ./tools/smartlint ./...
//
// ./... is also the default when no pattern is given. The analyzers of
// Suite run per package. The structure check (passes/structure) runs once
// over the whole program, so only on a whole-module run (./...): the
// benchmark module (bench/, a module of its own) is then loaded beside the
// main module and linted with it. On any narrower run the structure check
// is skipped, with a note.
//
// Each finding is either fixed or annotated at the offending line with
//
//	//smartlint:allow <analyzer> <reason>
//
// (same line or the line directly above). The run ends with a budget
// summary of every directive in force, so the repo's whole suppression
// inventory is reviewable in one place. Unused directives are reported as
// findings too: a suppression that no longer suppresses anything is stale
// documentation and must be deleted.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"smartchain/tools/smartlint/analysis"
	"smartchain/tools/smartlint/internal/directive"
	"smartchain/tools/smartlint/internal/load"
	"smartchain/tools/smartlint/passes/boundedchan"
	"smartchain/tools/smartlint/passes/detexec"
	"smartchain/tools/smartlint/passes/errdrop"
	"smartchain/tools/smartlint/passes/looptime"
	"smartchain/tools/smartlint/passes/structure"
	"smartchain/tools/smartlint/passes/verifyfirst"
)

// Suite is the full analyzer set, in reporting order.
var Suite = []*analysis.Analyzer{
	boundedchan.Analyzer,
	detexec.Analyzer,
	errdrop.Analyzer,
	looptime.Analyzer,
	verifyfirst.Analyzer,
}

type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func main() {
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	code, err := runSuite(*dir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smartlint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// secondRoots are modules beside the analyzed one that are linted with it:
// the benchmark is a module of its own, and its code counts as a caller
// for structure's test-only row.
var secondRoots = []string{"bench"}

func runSuite(dir string, patterns []string) (int, error) {
	res, err := lint(dir, patterns)
	if err != nil {
		return 0, err
	}
	for _, f := range res.findings {
		fmt.Printf("%s: %s: %s\n", f.pos, f.analyzer, f.message)
	}
	if res.skipped != "" {
		fmt.Println(res.skipped)
	}
	fmt.Println(budget(res.directives))
	if len(res.findings) > 0 {
		fmt.Printf("smartlint: %d finding(s)\n", len(res.findings))
		return 1, nil
	}
	return 0, nil
}

// program is what loadProgram loaded.
type program struct {
	pkgs   []*load.Package
	module string // path of dir's module
	// whole is set when pkgs are the whole program: dir's module (./...)
	// and every second root.
	whole bool
}

// loadProgram loads patterns under dir. When they are the whole module, it
// also loads every second root: the structure check counts their code as
// callers, so it runs only when all of them are loaded.
func loadProgram(dir string, patterns []string) (program, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return program{}, err
	}
	prog := program{pkgs: pkgs, module: pkgs[0].Module}
	prog.whole = len(patterns) == 1 && patterns[0] == "./..."
	if !prog.whole {
		return prog, nil
	}
	for _, root := range secondRoots {
		rootDir := filepath.Join(dir, root)
		if _, err := os.Stat(filepath.Join(rootDir, "go.mod")); err != nil {
			prog.whole = false
			continue
		}
		more, err := load.Load(rootDir, "./...")
		if err != nil {
			return program{}, err
		}
		prog.pkgs = append(prog.pkgs, more...)
	}
	return prog, nil
}

// result is one lint run: the unsuppressed findings, sorted, the
// directives in force, and, when the structure check did not run, a note
// that says so.
type result struct {
	findings   []finding
	directives []*directive.Directive
	skipped    string
}

// lint runs the analyzer suite over each package loadProgram returns and,
// on the whole program, the structure check once over all of them.
func lint(dir string, patterns []string) (result, error) {
	prog, err := loadProgram(dir, patterns)
	if err != nil {
		return result{}, err
	}

	known := map[string]bool{structure.Name: true}
	for _, a := range Suite {
		known[a.Name] = true
	}

	var findings []finding
	var directives []*directive.Directive
	suppressed := func(analyzer string, pos token.Position) bool {
		for _, d := range directives {
			if d.Suppresses(analyzer, pos.Filename, pos.Line) {
				d.Used = true
				return true
			}
		}
		return false
	}
	for _, pkg := range prog.pkgs {
		dirs, malformed := directive.Collect(pkg.Fset, pkg.Files, known)
		directives = append(directives, dirs...)
		for _, m := range malformed {
			findings = append(findings, finding{pos: m.Pos, analyzer: "directive", message: m.Why})
		}

		for _, a := range Suite {
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
				return result{}, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				if pos := pkg.Fset.Position(d.Pos); !suppressed(a.Name, pos) {
					findings = append(findings, finding{pos: pos, analyzer: a.Name, message: d.Message})
				}
			}
		}
	}

	var skipped string
	if prog.whole {
		rows, err := structure.Check(prog.module, prog.pkgs, structure.Rows)
		if err != nil {
			return result{}, err
		}
		for _, r := range rows {
			if !suppressed(structure.Name, r.Pos) {
				findings = append(findings, finding{pos: r.Pos, analyzer: structure.Name, message: r.Message})
			}
		}
	} else {
		skipped = fmt.Sprintf("smartlint: %s check skipped: it needs the whole program, ./... from a module root that holds %s/",
			structure.Name, strings.Join(secondRoots, "/, "))
	}

	// A directive that suppressed nothing is stale: the violation it
	// documented is gone, so the annotation must go too. Directives of a
	// check that did not run are left alone.
	for _, d := range directives {
		if !d.Used && (prog.whole || d.Analyzer != structure.Name) {
			findings = append(findings, finding{
				pos:      token.Position{Filename: d.File, Line: d.Line},
				analyzer: "directive",
				message:  fmt.Sprintf("stale //smartlint:allow %s directive: it suppresses nothing; delete it", d.Analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.analyzer < b.analyzer
	})
	return result{findings: findings, directives: directives, skipped: skipped}, nil
}

// budget is the suppression inventory line: how many allow directives are
// in force, per analyzer.
func budget(directives []*directive.Directive) string {
	perAnalyzer := make(map[string]int)
	for _, d := range directives {
		if d.Used {
			perAnalyzer[d.Analyzer]++
		}
	}
	names := make([]string, 0, len(perAnalyzer))
	total := 0
	for name, n := range perAnalyzer {
		names = append(names, name)
		total += n
	}
	sort.Strings(names)
	if total == 0 {
		return "smartlint: allow budget: 0 directives in force"
	}
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %d", name, perAnalyzer[name])
	}
	return fmt.Sprintf("smartlint: allow budget: %d directive(s) in force (%s)", total, strings.Join(parts, ", "))
}
