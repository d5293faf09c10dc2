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
//   - each method of a reached type whose name is a method name of some
//     interface in the program or its imports, which covers implicit
//     String, Error, io.* and sort.Interface satisfaction;
//   - declarations whose doc comment holds a `//deadcheck:keep REASON`
//     line. The reason should name the test that needs the declaration.
//
// Each unreached declaration prints as a `file:line name` line, sorted.
// Exit status is 1 when anything prints, 2 on a load error.
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
	s := &scan{fset: token.NewFileSet(), decls: map[types.Object]*decl{}, ifaceMethods: map[string]bool{}}
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
	// ifaceMethods holds every interface method name in the program and
	// its imports.
	ifaceMethods map[string]bool
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
				s.addMethodNames(it)
			}
		}
		api := p.Name != "main" && p.ImportPath == p.Module.Path
		report := slices.Contains(strings.Split(p.ImportPath, "/"), "internal")
		for _, f := range files {
			s.addFile(f, info, api, p.Name == "main", report)
		}
	}
	return nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addInterfaces records the method names of every named interface
// declared in p.
func (s *scan) addInterfaces(p *types.Package) {
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.addMethodNames(it)
			}
		}
	}
}

// addMethodNames records the names in an interface's method set.
func (s *scan) addMethodNames(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		s.ifaceMethods[it.Method(i).Name()] = true
	}
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
// references and the interface-method rule.
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
			if m := named.Method(i); s.ifaceMethods[m.Name()] {
				work = append(work, m)
			}
		}
	}
	return marked
}

// report prints the unreached declarations.
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
	marked := s.reach()
	for obj, d := range s.decls {
		if !d.report || marked[obj] {
			continue
		}
		file := d.pos.Filename
		if rel, err := filepath.Rel(abs, file); err == nil {
			file = rel
		}
		lines = append(lines, finding{filepath.ToSlash(file), d.pos.Line, d.name})
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
