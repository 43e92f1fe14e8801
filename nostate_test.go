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
	walkProduct(t, func(path string, f *ast.File) {
		for _, msg := range packageState(f) {
			t.Errorf("%s: %s", path, msg)
		}
	})
}

// TestOnePacketLoop keeps one loop timing every replay: the paper's
// per-NF packet rate, the daemon's batches, the bench's rows and the
// profiles must all come from the same code, or a figure and the
// benchmark measure different things, and a guarded instance must see
// the same arrival clock wherever it is replayed. In every non-test Go
// file under internal/ and cmd/ it refuses a range over a .Packets
// expression whose body calls a Process or ProcessAt method, except in
// harness.ReplayBatch (the loop) and harness.Latency, which reads the
// clock around every packet, a cost the other callers must not pay.
func TestOnePacketLoop(t *testing.T) {
	allowed := map[string]bool{"ReplayBatch": true, "Latency": true}
	walkProduct(t, func(path string, f *ast.File) {
		harness := filepath.ToSlash(filepath.Dir(path)) == "internal/harness"
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (harness && fn.Recv == nil && allowed[fn.Name.Name]) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				r, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if sel, ok := r.X.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Packets" {
					return true
				}
				if callsProcess(r.Body) {
					t.Errorf("%s: %s feeds a trace's packets to Process in a loop of its own; replay through harness.ReplayBatch",
						path, fn.Name.Name)
				}
				return true
			})
		}
	})
}

// callsProcess reports whether body calls a method named Process or
// ProcessAt.
func callsProcess(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Process" || sel.Sel.Name == "ProcessAt") {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkProduct parses every non-test Go file under internal/ and cmd/
// and hands it to visit.
func walkProduct(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
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
			visit(path, f)
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
