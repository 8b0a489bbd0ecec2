// Package structure is smartlint's one whole-program check. Each row of
// Rows pins one structural decision of the repository — one caller, one
// pool, one verification rule, one fault surface — and resolves the objects
// it names through go/types, so an import alias or a method value counts
// like a plain call.
//
// It is not an analysis.Analyzer: a rule such as "at most one reference in
// the program" needs every package at once, and the analysis mirror carries
// no Facts between packages. The driver runs it once, after load.Load has
// type-checked every package. load.Load checks each package against gc
// export data, so the same function is a different *types.Func in every
// importer: objects are matched by package path, receiver type name and
// name. Test files are parsed, not type-checked: the name bans (form c) read
// every identifier in them, and a reference row with Tests set counts their
// import-qualified selectors (pkg.Name).
package structure

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"smartchain/tools/smartlint/internal/load"
)

// Name is the check's name in findings and in //smartlint:allow directives.
const Name = "structure"

// Obj names an object. Pkg is an import path, or one relative to the
// analyzed module's root when it starts with "./", so one row applies to
// the repository and to the self-test's fixture module alike; an empty Pkg
// matches every package. Recv is the receiver's type name for a method,
// empty for a package-level object, and "*" for either.
type Obj struct{ Pkg, Recv, Name string }

// Form is the shape of a row, lettered as in DESIGN.md "Enforced
// invariants".
type Form byte

const (
	References  Form = 'a' // packages In minus Except hold at most Max references to each of Refs and import none of Imports
	NoConstruct Form = 'b' // files or packages In minus Except contain no Construct
	NoDecl      Form = 'c' // no name in Refs appears outside Except, test files included; Except declares each
	TestOnly    Form = 'd' // every exported function and method under internal/ has a non-test reference
)

// Construct is a syntactic shape form (b) bans.
type Construct int

const (
	// Concurrency is a go statement or any expression of channel type.
	Concurrency Construct = iota
	// CounterLoop is a for loop whose init declares a uint32 counter from a
	// constant: a list count read by hand instead of (*codec.Decoder).Count.
	CounterLoop
)

// Row is one structure rule. In and Except hold packages ("./internal/codec",
// "./internal/codec/..." for the subtree) or, for form (b), files
// ("./internal/smr/verify.go"); an empty In is the whole program.
type Row struct {
	Form      Form
	Refs      []Obj
	Imports   []string
	In        []string
	Except    []string
	Max       int
	Construct Construct
	// Tests makes a reference row count test files too. They are not
	// type-checked, so a test reference is a selector on an import of the
	// object's package: package-level objects only, not methods.
	Tests bool
	// Decision is what the row guards, closing every finding it prints.
	Decision string
}

// Finding is one violation of a row.
type Finding struct {
	Pos     token.Position
	Message string
}

// Rows is the repository's table. The rows up to the test-only one replaced
// grep steps in CI; where each decision comes from is in DESIGN.md's table.
var Rows = []Row{
	{Form: References, Refs: []Obj{{"./internal/codec", "Decoder", "Uint32"}}, Except: []string{"./internal/codec/..."},
		Decision: `a list count is read with (*codec.Decoder).Count or codec.List (DESIGN.md "Decoding contract")`},
	{Form: NoConstruct, Construct: CounterLoop, Except: []string{"./internal/codec/..."},
		Decision: `a list count is read with (*codec.Decoder).Count or codec.List (DESIGN.md "Decoding contract")`},
	{Form: NoDecl, Refs: []Obj{{"", "*", "fuzzDecoder"}}, Except: []string{"./internal/codec/codectest"},
		Decision: `the decoding contract's helper lives in internal/codec/codectest only (DESIGN.md "Decoding contract")`},
	{Form: References, Refs: []Obj{{"./internal/consensus", "", "New"}, {"./internal/consensus", "", "Engine"}},
		Except: []string{"./internal/consensus", "./bench"}, Tests: true,
		Decision: `consensus.Engine serves the benchmark's probe only: step consensus.Machine (DESIGN.md "Pipelined ordering")`},
	{Form: References, In: []string{"./internal/coin"},
		Refs: []Obj{{"./internal/crypto", "", "Verify"}, {"./internal/crypto", "", "BatchVerifier"},
			{"./internal/crypto", "", "VerifyPool"}, {"", "*", "Sign"}},
		Decision: `the request signature is a transaction's only one (DESIGN.md "One signature per request")`},
	{Form: References, Refs: []Obj{{"crypto/ed25519", "", "Verify"}, {"crypto/ed25519", "", "VerifyWithOptions"}},
		Decision: `verify with crypto.Verify or crypto.BatchVerifier, one cofactored rule (DESIGN.md "Batched signature verification")`},
	{Form: References, Max: 1, Refs: []Obj{{"./internal/consensus", "", "VerifyDecisionProof"}}, In: []string{"./internal/blockchain"},
		Decision: `one chain walk: extend VerifyRange (DESIGN.md "Verifying a chain")`},
	{Form: NoDecl, Refs: []Obj{{"./internal/crypto", "Certificate", "Verify"}},
		Decision: `certificates are counted by Certificate.CountValid only (DESIGN.md "Verifying a chain")`},
	{Form: References, Max: 1, Refs: []Obj{{"./internal/crypto", "", "NewVerifyPool"}},
		Decision: `a replica's verification shares one crypto.VerifyPool (DESIGN.md "Batched signature verification")`},
	{Form: NoDecl, Refs: []Obj{{"", "*", "votePool"}},
		Decision: `votes share the replica's one verification pool (DESIGN.md "Batched signature verification")`},
	{Form: NoConstruct, Construct: Concurrency, In: []string{"./internal/smr/verify.go"},
		Decision: `queue the work on crypto.VerifyPool (DESIGN.md "Batched signature verification")`},
	{Form: References, In: []string{"./internal/transport"}, Imports: []string{"crypto/tls"},
		Decision: `the TCP wire has one plaintext dial path (DESIGN.md "Injection hooks")`},
	{Form: NoDecl, Refs: []Obj{{"./internal/transport", "*", "SetLoss"}, {"./internal/transport", "*", "SetLinkLoss"},
		{"./internal/transport", "TCPNetwork", "SetLinkDelay"}, {"./internal/transport", "*", "dropRate"},
		{"./internal/transport", "*", "isolated"}, {"./internal/transport", "*", "partition"}},
		Decision: `memnet loses messages only through its filter stack (DESIGN.md "Injection hooks")`},
	{Form: TestOnly,
		Decision: `delete it, move it into a _test.go file, or allow it as a test hook (DESIGN.md "Enforced invariants")`},
	{Form: References, Max: 1, Refs: []Obj{{"./internal/smr", "VerifierPool", "Submit"}}, In: []string{"./internal/core"},
		Decision: `an ordered request is verified where it is proposed; only serveUnordered submits on arrival (DESIGN.md "Who verifies an ordered request")`},
}

// Check runs rows over pkgs: every non-test package of the program, the
// module rooted at module first and any second roots after it.
func Check(module string, pkgs []*load.Package, rows []Row) ([]Finding, error) {
	p := &program{module: module, pkgs: pkgs, ifaces: make(map[string][]*types.Interface)}
	if err := p.index(); err != nil {
		return nil, err
	}
	var out []Finding
	for _, r := range rows {
		out = append(out, p.check(r)...)
	}
	return out, nil
}

type key struct{ pkg, recv, name string }

// site is one reference, or one import when obj is empty.
type site struct {
	pos  token.Position
	from string // referring package, module-relative
	obj  key
	imp  string
	test bool // an import-qualified selector in a test file
}

// file is one source file of the program, test files included.
type file struct {
	fset *token.FileSet
	ast  *ast.File
	pkg  string // import path
}

type program struct {
	module string
	pkgs   []*load.Package
	sites  []site
	files  []file
	refs   map[key]int                   // non-test references
	ifaces map[string][]*types.Interface // by method name, the interfaces declaring it
	known  map[key]bool                  // every object the program or its imports declare
}

// rel names path relative to the module root when it lies inside it.
func (p *program) rel(path string) string {
	switch {
	case path == p.module:
		return "."
	case strings.HasPrefix(path, p.module+"/"):
		return "./" + strings.TrimPrefix(path, p.module+"/")
	}
	return path
}

func keyOf(obj types.Object) key {
	k := key{name: obj.Name()}
	if obj.Pkg() != nil {
		k.pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			k.recv = typeName(recv.Type())
		}
	}
	return k
}

func typeName(t types.Type) string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// index collects every reference, import and declaration once.
func (p *program) index() error {
	p.refs = make(map[key]int)
	p.known = make(map[key]bool)
	seen := make(map[*types.Package]bool)
	var declare func(*types.Package)
	declare = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			p.known[keyOf(obj)] = true
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				p.addIface(iface)
			}
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					p.known[keyOf(n.Method(i))] = true
				}
			}
		}
		for _, imp := range tp.Imports() {
			declare(imp)
		}
	}
	p.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, pkg := range p.pkgs {
		declare(pkg.Types)
		from := p.rel(pkg.Path)
		for id, obj := range pkg.TypesInfo.Uses {
			if obj.Pkg() == nil {
				continue // universe: builtins, error, nil
			}
			k := keyOf(obj)
			p.refs[k]++
			p.sites = append(p.sites, site{pos: pkg.Fset.Position(id.Pos()), from: from, obj: k})
		}
		for _, tv := range pkg.TypesInfo.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
				p.addIface(iface)
			}
		}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				p.sites = append(p.sites, site{pos: pkg.Fset.Position(spec.Pos()), from: from, imp: path})
			}
			p.files = append(p.files, file{pkg.Fset, f, pkg.Path})
		}
		tests := token.NewFileSet()
		for _, name := range pkg.TestFiles {
			f, err := parser.ParseFile(tests, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return fmt.Errorf("parsing %s: %v", name, err)
			}
			p.files = append(p.files, file{tests, f, pkg.Path})
			p.testSites(tests, f, from)
		}
	}
	sort.Slice(p.sites, func(i, j int) bool {
		a, b := p.sites[i].pos, p.sites[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return nil
}

// testSites records the selectors on an import in a parsed test file as
// references to the imported package's objects.
func (p *program) testSites(fset *token.FileSet, f *ast.File, from string) {
	imports := make(map[string]string) // local name to import path
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
				k := key{pkg: imports[id.Name], name: sel.Sel.Name}
				p.sites = append(p.sites, site{pos: fset.Position(sel.Sel.Pos()), from: from, obj: k, test: true})
			}
		}
		return true
	})
}

func (p *program) addIface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		p.ifaces[name] = append(p.ifaces[name], iface)
	}
}

// implements reports whether fn's receiver has, by name, every method of
// some interface that declares fn: then fn is reached through that
// interface. Names, not types.Implements: each package is checked against
// export data, so one interface or method type is a different object in
// every importer.
func (p *program) implements(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	ms := types.NewMethodSet(recv)
	has := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		has[ms.At(i).Obj().Name()] = true
	}
	for _, iface := range p.ifaces[fn.Name()] {
		all := true
		for i := 0; i < iface.NumMethods() && all; i++ {
			all = has[iface.Method(i).Name()]
		}
		if all {
			return true
		}
	}
	return false
}

// names calls visit for every name in f, from its syntax alone, so
// parsed-only test files read like type-checked ones: a method under its
// receiver's type name, any other identifier under none. A name declared
// nowhere cannot be used, so a ban on a name is a ban on its declaration.
func names(f *ast.File, visit func(id *ast.Ident, recv string)) {
	methods := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && len(n.Recv.List) == 1 {
				methods[n.Name] = true
				visit(n.Name, recvExpr(n.Recv.List[0].Type))
			}
		case *ast.Ident:
			if !methods[n] {
				visit(n, "")
			}
		}
		return true
	})
}

// recvExpr is a receiver's type name from syntax: T, *T, T[P] or *T[P].
func recvExpr(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// match reports whether the module-relative package (or file) name is
// covered by pattern: equal, or inside a "dir/..." subtree.
func match(name string, patterns []string) bool {
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if name == base || strings.HasPrefix(name, base+"/") {
				return true
			}
		} else if name == pat {
			return true
		}
	}
	return false
}

// inScope reports whether a row with in and except looks at name; an empty
// in is everything.
func inScope(name string, in, except []string) bool {
	return (len(in) == 0 || match(name, in)) && !match(name, except)
}

func (p *program) matches(o Obj, k key) bool {
	if o.Name != k.name || (o.Recv != "*" && o.Recv != k.recv) {
		return false
	}
	return o.Pkg == "" || o.Pkg == p.rel(k.pkg)
}

func (o Obj) String() string {
	s := o.Name
	if o.Recv != "" && o.Recv != "*" {
		s = o.Recv + "." + s
	}
	if o.Pkg != "" {
		s = strings.TrimPrefix(o.Pkg, "./") + "." + s
	}
	return s
}

func (p *program) check(r Row) []Finding {
	var out []Finding
	report := func(pos token.Position, format string, args ...any) {
		out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(format, args...) + ": " + r.Decision})
	}
	switch r.Form {
	case References:
		for _, o := range r.Refs {
			if !p.declared(o, nil) {
				report(token.Position{}, "row (%c) names %s, which no loaded package declares", r.Form, o)
			}
			var hits []site
			for _, s := range p.sites {
				if s.imp == "" && (r.Tests || !s.test) && p.matches(o, s.obj) && inScope(s.from, r.In, r.Except) {
					hits = append(hits, s)
				}
			}
			if len(hits) <= r.Max {
				continue
			}
			kind := "non-test references"
			if r.Tests {
				kind = "references"
			}
			for _, s := range hits {
				if r.Max == 0 {
					report(s.pos, "%s referenced from %s", o, s.from)
				} else {
					report(s.pos, "%s has %d %s%s, at most %d", o, len(hits), kind, fromText(r.In), r.Max)
				}
			}
		}
		for _, s := range p.sites {
			if s.imp != "" && match(s.imp, r.Imports) && inScope(s.from, r.In, r.Except) {
				report(s.pos, "%s imports %q", s.from, s.imp)
			}
		}
	case NoConstruct:
		for _, pkg := range p.pkgs {
			for _, f := range pkg.Files {
				file := p.rel(pkg.Path) + "/" + filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
				if !inScope(p.rel(pkg.Path), r.In, r.Except) && !inScope(file, r.In, r.Except) {
					continue
				}
				for _, c := range constructs(pkg, f, r.Construct) {
					report(pkg.Fset.Position(c.pos), "%s in %s", c.what, file)
				}
			}
		}
	case NoDecl:
		for _, o := range r.Refs {
			if len(r.Except) > 0 && !p.declared(o, r.Except) {
				report(token.Position{}, "row (%c) keeps %s in %s, which declares none", r.Form, o, strings.Join(r.Except, ", "))
			}
		}
		for _, f := range p.files {
			rel := p.rel(f.pkg)
			if match(rel, r.Except) {
				continue
			}
			names(f.ast, func(id *ast.Ident, recv string) {
				for _, o := range r.Refs {
					if p.matches(o, key{f.pkg, recv, id.Name}) {
						report(f.fset.Position(id.Pos()), "%s appears in %s", o, rel)
					}
				}
			})
		}
	case TestOnly:
		out = append(out, p.testOnly(r)...)
	}
	return out
}

func fromText(in []string) string {
	if len(in) == 0 {
		return ""
	}
	return " from " + strings.Join(in, ", ")
}

// declared reports whether the program or one of its imports declares o,
// in a package in covers when in is not empty.
func (p *program) declared(o Obj, in []string) bool {
	for k := range p.known {
		if p.matches(o, k) && (len(in) == 0 || match(p.rel(k.pkg), in)) {
			return true
		}
	}
	return false
}

type construct struct {
	pos  token.Pos
	what string
}

func constructs(pkg *load.Package, f *ast.File, c Construct) []construct {
	var out []construct
	ast.Inspect(f, func(n ast.Node) bool {
		switch c {
		case Concurrency:
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, construct{g.Pos(), "go statement"})
			} else if e, ok := n.(ast.Expr); ok {
				if tv, ok := pkg.TypesInfo.Types[e]; ok {
					if _, ok := tv.Type.Underlying().(*types.Chan); ok {
						out = append(out, construct{e.Pos(), "channel-typed expression"})
						return false
					}
				}
			}
		case CounterLoop:
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				break
			}
			init, ok := loop.Init.(*ast.AssignStmt)
			if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
				break
			}
			v := pkg.TypesInfo.Defs[init.Lhs[0].(*ast.Ident)]
			if v == nil || pkg.TypesInfo.Types[init.Rhs[0]].Value == nil {
				break
			}
			if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Kind() == types.Uint32 {
				out = append(out, construct{loop.Pos(), "uint32 counter loop"})
			}
		}
		return true
	})
	return out
}

// testOnly is form (d): an exported function or method under internal/
// (the edwards25519 copy excluded) that no non-test code in the program
// references. A method is exempt when its receiver has every method of an
// interface that declares it: it is reached through the interface. Sharing
// a name with an interface the receiver does not implement exempts nothing.
func (p *program) testOnly(r Row) []Finding {
	var out []Finding
	for _, pkg := range p.pkgs {
		rel := p.rel(pkg.Path)
		if !strings.HasPrefix(rel, "./internal/") || strings.Contains(rel, "/edwards25519") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				obj := pkg.TypesInfo.Defs[fd.Name]
				k := keyOf(obj)
				if p.refs[k] > 0 || k.recv != "" && p.implements(obj.(*types.Func)) {
					continue
				}
				name := Obj{Pkg: pkg.Types.Name(), Recv: k.recv, Name: k.name}
				out = append(out, Finding{Pos: pkg.Fset.Position(fd.Name.Pos()),
					Message: fmt.Sprintf("%s is exported but no non-test code references it: %s", name, r.Decision)})
			}
		}
	}
	return out
}
