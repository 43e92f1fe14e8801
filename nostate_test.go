package enetstl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoPackageState keeps configuration off package level: whoever
// builds an instance configures it, so no process-wide switch decides
// what a VM, recorder or fault plane starts with. In every non-test Go
// file under internal/ and cmd/ it refuses the two shapes such a switch
// takes — a package-level variable whose type comes from sync or
// sync/atomic (the switch), and an exported package-level Set* function
// (its writer).
//
// sync.Pool is exempt: a cache of recycled buffers holds no
// configuration, and what it hands out is the same whichever caller put
// it back.
func TestNoPackageState(t *testing.T) {
	fset := token.NewFileSet()
	var files int
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, msg := range packageState(f) {
				t.Errorf("%s: %s", path, msg)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no product Go files found: the test must run from the module root")
	}
}

// packageState lists f's package-level sync/atomic variables (sync.Pool
// aside) and exported Set* functions.
func packageState(f *ast.File) []string {
	syncPkgs := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "sync" && path != "sync/atomic" {
			continue
		}
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		syncPkgs[name] = path
	}
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "Set") {
				out = append(out, "package-level setter func "+d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				exprs := append([]ast.Expr{vs.Type}, vs.Values...)
				for _, e := range exprs {
					pkg, typ, ok := syncType(e, syncPkgs)
					if !ok || (pkg == "sync" && typ == "Pool") {
						continue
					}
					for _, n := range vs.Names {
						out = append(out, "package-level var "+n.Name+" of type "+pkg+"."+typ)
					}
					break
				}
			}
		}
	}
	return out
}

// syncType reports the sync or sync/atomic type e declares or builds:
// a type expression (through pointers and type arguments), a composite
// literal, its address, or new(T).
func syncType(e ast.Expr, syncPkgs map[string]string) (pkg, typ string, ok bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if id, isID := x.X.(*ast.Ident); isID {
			if path, found := syncPkgs[id.Name]; found {
				return path, x.Sel.Name, true
			}
		}
	case *ast.StarExpr:
		return syncType(x.X, syncPkgs)
	case *ast.ParenExpr:
		return syncType(x.X, syncPkgs)
	case *ast.IndexExpr:
		return syncType(x.X, syncPkgs)
	case *ast.IndexListExpr:
		return syncType(x.X, syncPkgs)
	case *ast.CompositeLit:
		return syncType(x.Type, syncPkgs)
	case *ast.UnaryExpr:
		return syncType(x.X, syncPkgs)
	case *ast.CallExpr:
		if id, isID := x.Fun.(*ast.Ident); isID && id.Name == "new" && len(x.Args) == 1 {
			return syncType(x.Args[0], syncPkgs)
		}
	}
	return "", "", false
}
