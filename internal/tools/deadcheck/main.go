// Command deadcheck is the repository's reachability gate: it reports
// every package-level declaration under an internal/ directory that no
// program reaches. Test files are never roots, so a declaration that
// only tests call is dead too.
//
// Usage, from the repository root:
//
//	go run ./internal/tools/deadcheck
//
// It type-checks every module under the working directory (the root
// module and nested ones such as msfbench; testdata, dot- and
// underscore-prefixed directories are skipped, as the go tool skips
// them) from source, importing the standard library from the export
// data `go list -export -deps -json` reports. It then walks references
// from these roots:
//
//   - main of every main package, and init of every package (it runs
//     whenever the package is linked);
//   - every declaration of a module's root package when that package is
//     a library: it is the public API, reviewed by hand;
//   - the initializers of `var _ = ...` declarations;
//   - each method of a reached type T that satisfies an interface: T or
//     *T implements an interface in the program or its imports that
//     declares the method, which covers implicit String, Error, io.*
//     and sort.Interface satisfaction. A method that only shares its
//     name with an interface method, such as a lone Len, is not kept;
//   - declarations whose doc comment holds a `//deadcheck:keep REASON`
//     line. The reason should name the test that needs the declaration.
//
// A second pass audits knobs: the exported fields of exported structs
// named *Options or *Config under an internal/ directory. It reports each
// knob that no non-test code outside the declaring package writes, so a
// field only its own defaults and tests set cannot linger. A write is a
// composite-literal key, or an assignment or ++/-- through a selector
// chain (`cfg.FD.X = v` writes both FD and X). A value copied from
// another knob (`Margin: cfg.Margin`) is a forward: the target counts as
// written only if the source is. A copy from any other field, such as a
// flag-backed struct in a main package, is a write. Values are not
// evaluated, so a write of the value the field's own defaulting would
// substitute still counts as a write: a program that only ever sets
// mesh.Config.Distance to 7, which is what zero already means, keeps
// Distance off the report. A field doc comment takes the same keep line.
//
// Each finding prints as a `file:line name` line (Type.Field for a
// knob), sorted. Exit status is 1 when anything prints, 2 on a load
// error.
package main

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	n, err := run(".", os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadcheck: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "deadcheck: %d finding(s) under internal/\n", n)
		os.Exit(1)
	}
}

// listedPackage is the subset of `go list -json` output deadcheck reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// decl is one package-level declaration: a func, method, type, or one
// name of a const or var spec.
type decl struct {
	obj  types.Object
	pos  token.Position
	name string // Recv.Method for methods
	refs []types.Object
	// report is set for declarations under an internal/ directory.
	report bool
}

// knob is an exported field of an exported *Options or *Config struct
// under an internal/ directory.
type knob struct {
	pos  token.Position
	name string // Type.Field
	keep bool
}

// write is a field write, dst = src, where src is the field the value
// copies, or nil.
type write struct{ dst, src *types.Var }

// run scans every module under root, writes the findings to w with
// paths relative to root, and returns how many lines it wrote.
func run(root string, w io.Writer) (int, error) {
	mods, err := moduleDirs(root)
	if err != nil {
		return 0, err
	}
	var pkgs []*listedPackage
	seen := map[string]bool{}
	for _, dir := range mods {
		listed, err := goList(dir)
		if err != nil {
			return 0, err
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	s := &scan{
		fset:       token.NewFileSet(),
		decls:      map[types.Object]*decl{},
		ifaces:     map[string][]*types.Interface{},
		seenIfaces: map[*types.Interface]bool{},
		knobs:      map[*types.Var]*knob{},
	}
	if err := s.check(pkgs); err != nil {
		return 0, err
	}
	return s.report(root, w)
}

// moduleDirs returns root and every directory below it holding a go.mod,
// skipping the directories the go tool ignores.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

// goList lists the packages of the module in dir and all their
// dependencies, dependencies first.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// scan holds the type-checked program and its declaration graph.
type scan struct {
	fset  *token.FileSet
	decls map[types.Object]*decl
	// roots are reached no matter what, keep lines included.
	roots []types.Object
	// ifaces maps each method name to the interfaces in the program and
	// its imports that declare it; seenIfaces dedupes them.
	ifaces     map[string][]*types.Interface
	seenIfaces map[*types.Interface]bool
	knobs      map[*types.Var]*knob
	// writes holds the field writes non-test code makes outside the
	// field's package.
	writes []write
}

// check type-checks the module packages from source, in the dependency
// order go list gives, and records their declarations.
func (s *scan) check(pkgs []*listedPackage) error {
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	for _, p := range pkgs {
		if p.Standard || p.Module == nil {
			tp, err := imp.Import(p.ImportPath)
			if err != nil {
				return err
			}
			s.addInterfaces(tp)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, s.fset, files, info)
		if err != nil {
			return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		s.addInterfaces(tp)
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				s.addInterface(it)
			}
		}
		api := p.Name != "main" && p.ImportPath == p.Module.Path
		report := slices.Contains(strings.Split(p.ImportPath, "/"), "internal")
		for _, f := range files {
			s.addFile(f, info, api, p.Name == "main", report)
			s.addWrites(f, info, tp)
		}
	}
	return nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addInterfaces records every named interface declared in p.
func (s *scan) addInterfaces(p *types.Package) {
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.addInterface(it)
			}
		}
	}
}

// addInterface indexes an interface under each method name it declares.
func (s *scan) addInterface(it *types.Interface) {
	if s.seenIfaces[it] {
		return
	}
	s.seenIfaces[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		s.ifaces[name] = append(s.ifaces[name], it)
	}
}

// satisfies reports whether m, a method of t, is needed by an interface
// that t or *t implements.
func (s *scan) satisfies(t *types.Named, m *types.Func) bool {
	ptr := types.NewPointer(t)
	for _, it := range s.ifaces[m.Name()] {
		if types.Implements(t, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// addFile records one file's package-level declarations and the roots
// among them.
func (s *scan) addFile(f *ast.File, info *types.Info, api, isMain, report bool) {
	add := func(id *ast.Ident, nodes []ast.Node, docs ...*ast.CommentGroup) *decl {
		obj := info.Defs[id]
		if obj == nil { // the blank identifier
			return nil
		}
		d := &decl{obj: obj, pos: s.fset.Position(id.Pos()), name: id.Name, refs: refsIn(info, nodes...), report: report}
		s.decls[obj] = d
		if api || hasKeep(docs...) {
			s.roots = append(s.roots, obj)
		}
		return d
	}
	for _, dl := range f.Decls {
		switch dl := dl.(type) {
		case *ast.FuncDecl:
			d := add(dl.Name, []ast.Node{dl}, dl.Doc)
			switch {
			case dl.Recv != nil:
				d.name = recvName(dl.Recv.List[0].Type) + "." + d.name
			case dl.Name.Name == "init" || isMain && dl.Name.Name == "main":
				s.roots = append(s.roots, d.obj)
			}
		case *ast.GenDecl:
			var last ast.Node // the spec an implicit const repeats
			for _, spec := range dl.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add(sp.Name, []ast.Node{sp}, dl.Doc, sp.Doc)
					if report {
						s.addKnobs(sp, info)
					}
				case *ast.ValueSpec:
					nodes := []ast.Node{sp}
					if dl.Tok == token.CONST && sp.Type == nil && len(sp.Values) == 0 && last != nil {
						nodes = append(nodes, last)
					} else {
						last = sp
					}
					for _, id := range sp.Names {
						if id.Name == "_" {
							s.roots = append(s.roots, refsIn(info, nodes...)...)
							continue
						}
						add(id, nodes, dl.Doc, sp.Doc)
					}
				}
			}
		}
	}
}

// addKnobs records the exported fields of sp when it declares an
// exported *Options or *Config struct.
func (s *scan) addKnobs(sp *ast.TypeSpec, info *types.Info) {
	st, ok := sp.Type.(*ast.StructType)
	name := sp.Name.Name
	if !ok || !sp.Name.IsExported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
		return
	}
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if v, ok := info.Defs[id].(*types.Var); ok && id.IsExported() {
				s.knobs[v] = &knob{pos: s.fset.Position(id.Pos()), name: name + "." + id.Name, keep: hasKeep(f.Doc)}
			}
		}
	}
}

// addWrites records the field writes in f that land outside pkg.
func (s *scan) addWrites(f *ast.File, info *types.Info, pkg *types.Package) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// source is the field e copies, or nil.
	source := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return field(sel.Sel)
		}
		return nil
	}
	add := func(id *ast.Ident, src *types.Var) {
		if v := field(id); v != nil && v.Pkg() != pkg {
			s.writes = append(s.writes, write{v, src})
		}
	}
	// chain writes every field of a selector chain; only the outermost
	// takes the value src.
	chain := func(e ast.Expr, src *types.Var) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e, src = x.X, nil
			case *ast.SelectorExpr:
				add(x.Sel, src)
				e, src = x.X, nil
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				add(id, source(n.Value))
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var src *types.Var
				if len(n.Rhs) == len(n.Lhs) {
					src = source(n.Rhs[i])
				}
				chain(lhs, src)
			}
		case *ast.IncDecStmt:
			chain(n.X, nil)
		}
		return true
	})
}

// setKnobs returns the fields some non-test code outside their package
// writes. A write whose value is another knob (a forward) counts only
// once that knob is set.
func (s *scan) setKnobs() map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for changed := true; changed; {
		changed = false
		for _, w := range s.writes {
			if !set[w.dst] && (w.src == nil || s.knobs[w.src] == nil || set[w.src]) {
				set[w.dst], changed = true, true
			}
		}
	}
	return set
}

// refsIn returns the package-level objects and methods the nodes use.
func refsIn(info *types.Info, nodes ...ast.Node) []types.Object {
	var refs []types.Object
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					refs = append(refs, origin(obj))
				}
			}
			return true
		})
	}
	return refs
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// hasKeep reports whether a doc comment holds a keep line with a reason.
func hasKeep(docs ...*ast.CommentGroup) bool {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if reason, ok := strings.CutPrefix(c.Text, "//deadcheck:keep "); ok && strings.TrimSpace(reason) != "" {
				return true
			}
		}
	}
	return false
}

// recvName returns the type name of a method receiver expression.
func recvName(t ast.Expr) string {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// reach returns everything reachable from the roots, following
// references and the interface-satisfaction rule.
func (s *scan) reach() map[types.Object]bool {
	marked := map[types.Object]bool{}
	work := append([]types.Object(nil), s.roots...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if marked[obj] {
			continue
		}
		marked[obj] = true
		if d := s.decls[obj]; d != nil {
			work = append(work, d.refs...)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); s.satisfies(named, m) {
				work = append(work, m)
			}
		}
	}
	return marked
}

// report prints the unreached declarations and the unset knobs.
func (s *scan) report(root string, w io.Writer) (int, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return 0, err
	}
	type finding struct {
		file string
		line int
		text string
	}
	var lines []finding
	add := func(pos token.Position, name string) {
		file := pos.Filename
		if rel, err := filepath.Rel(abs, file); err == nil {
			file = rel
		}
		lines = append(lines, finding{filepath.ToSlash(file), pos.Line, name})
	}
	marked := s.reach()
	for obj, d := range s.decls {
		if !d.report || marked[obj] {
			continue
		}
		add(d.pos, d.name)
	}
	set := s.setKnobs()
	for v, k := range s.knobs {
		if !k.keep && !set[v] {
			add(k.pos, k.name)
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.text < b.text
	})
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s:%d %s\n", l.file, l.line, l.text); err != nil {
			return 0, err
		}
	}
	return len(lines), nil
}
