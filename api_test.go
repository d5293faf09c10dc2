package magicstate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicAPINamesNoInternalTypes parses the package's non-test files
// and fails when an exported func or method signature, exported type or
// exported struct field names a magicstate/internal/... type. Internal
// packages may appear in values (a constant such as
// InteractionStyle(mesh.StyleBraiding)) and in unexported fields, never
// in a type position of the public API.
func TestPublicAPINamesNoInternalTypes(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		internal := make(map[string]string) // import name -> path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, "magicstate/internal/") {
				continue
			}
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			internal[local] = p
		}
		check := func(what string, typ ast.Node) {
			ast.Inspect(typ, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && internal[pkg.Name] != "" {
					t.Errorf("%s: %s names %s.%s", fset.Position(sel.Pos()), what, internal[pkg.Name], sel.Sel.Name)
				}
				return true
			})
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvTypeName(d.Recv.List[0].Type))) {
					check("func "+d.Name.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							checkType(s, check)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && s.Type != nil {
								check(n.Name, s.Type)
							}
						}
					}
				}
			}
		}
	}
}

// checkType checks an exported type: a struct's exported and embedded
// fields, and any other type expression whole.
func checkType(s *ast.TypeSpec, check func(string, ast.Node)) {
	st, ok := s.Type.(*ast.StructType)
	if !ok {
		check("type "+s.Name.Name, s.Type)
		return
	}
	for _, field := range st.Fields.List {
		exported := len(field.Names) == 0 // embedded
		for _, n := range field.Names {
			exported = exported || n.IsExported()
		}
		if exported {
			check("type "+s.Name.Name+" field", field.Type)
		}
	}
}

// recvTypeName returns the type name of a method receiver, T or *T.
func recvTypeName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
