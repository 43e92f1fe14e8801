package enetstl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoPackageState keeps configuration off package level: whoever
// builds an instance configures it, so no process-wide switch decides
// what a VM, recorder or fault plane starts with. In every non-test Go
// file under internal/, cmd/ and examples/ it refuses the two shapes
// such a switch takes — a package-level variable whose type comes from
// sync or sync/atomic (the switch), and an exported package-level Set*
// function (its writer).
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
// The examples are not held to it: each shows an instance's API by
// driving it by hand, and none reports a figure the harness produces.
func TestOnePacketLoop(t *testing.T) {
	allowed := map[string]bool{"ReplayBatch": true, "Latency": true}
	walkProduct(t, func(path string, f *ast.File) {
		if strings.HasPrefix(filepath.ToSlash(path), "examples/") {
			return
		}
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

// TestOneShardRunner keeps one way to replay a shard set: the daemon's
// batches, ParallelRun's passes and nfrun's profile all hand their
// shards to harness.ReplayShards, which threads each shard's arrival
// clock on and reports the first error in shard order, so a sharded
// module and a sharded run replay the same way. In every non-test Go
// file under internal/, cmd/ and examples/ it refuses a call to
// ReplayBatch inside a loop or a go statement, except in ReplayShards
// and in Throughput, whose passes replay one unsharded instance.
func TestOneShardRunner(t *testing.T) {
	allowed := map[string]bool{"ReplayShards": true, "Throughput": true}
	walkProduct(t, func(path string, f *ast.File) {
		harness := filepath.ToSlash(filepath.Dir(path)) == "internal/harness"
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (harness && fn.Recv == nil && allowed[fn.Name.Name]) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var body ast.Node
				switch s := n.(type) {
				case *ast.ForStmt:
					body = s.Body
				case *ast.RangeStmt:
					body = s.Body
				case *ast.GoStmt:
					body = s.Call
				default:
					return true
				}
				if callsNamed(body, "ReplayBatch") {
					t.Errorf("%s: %s replays shards through ReplayBatch in a loop of its own; hand them to harness.ReplayShards",
						path, funcName(fn))
					return false
				}
				return true
			})
		}
	})
}

// TestGridShipsInNoBinary keeps the oracle stack out of the product:
// the conformance grid (internal/difftest, with its reference
// interpreter and program generator) and the fault plane it arms
// (internal/faultinject) are test code, run by go test, as the kernel
// builds its BPF selftests outside the image it ships. No non-test Go
// file under internal/, cmd/ or examples/ outside those two packages may
// import either, so no binary links them and a user run never counts
// their code as product code.
func TestGridShipsInNoBinary(t *testing.T) {
	testOnly := map[string]bool{"internal/difftest": true, "internal/faultinject": true}
	walkProduct(t, func(path string, f *ast.File) {
		if testOnly[filepath.ToSlash(filepath.Dir(path))] {
			return
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dir := strings.TrimPrefix(p, "enetstl/"); testOnly[dir] {
				t.Errorf("%s imports %s, which only tests may import", path, p)
			}
		}
	})
}

// TestOneHTTPServer keeps one observability surface: the nfd daemon's
// route table, behind its timeouts and body limits, is the only place
// the product listens. In every non-test Go file under internal/, cmd/
// and examples/ outside internal/nfd it refuses a call to net.Listen or
// http.ListenAndServe, an http.Server value, and an import of
// net/http/pprof. Clients (http.Get, the smokes) are not servers and
// pass.
func TestOneHTTPServer(t *testing.T) {
	walkProduct(t, func(path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) == "internal/nfd" {
			return
		}
		names := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "net/http/pprof" {
				t.Errorf("%s imports net/http/pprof; the profiler is nfd's /debug/pprof/", path)
			}
			local := p[strings.LastIndexByte(p, '/')+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			names[local] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch what := names[pkg.Name] + "." + sel.Sel.Name; what {
			case "net.Listen", "net/http.Server", "net/http.ListenAndServe", "net/http.ListenAndServeTLS", "net/http.Serve":
				t.Errorf("%s: uses %s; the product's one HTTP server is nfd's (internal/nfd)", path, what)
			}
			return true
		})
	})
}

// TestEveryKfuncHasACaller keeps the library to what its programs use.
// A kfunc body is a closure inside one of internal/core's register
// functions, so no function-level audit can see it run: this test reads
// the kfunc IDs those functions register (the Kf* constants their bodies
// name) and refuses any that no program builder outside internal/core
// names as core.Kf*. A kfunc nobody calls goes, with the natives only it
// reaches.
func TestEveryKfuncHasACaller(t *testing.T) {
	ids := map[string]bool{}  // Kf* constants internal/core declares
	used := map[string]bool{} // identifiers its function bodies name
	named := map[string]bool{}
	walkProduct(t, func(path string, f *ast.File) {
		inCore := filepath.ToSlash(filepath.Dir(path)) == "internal/core"
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && inCore && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(name.Name, "Kf") {
							ids[name.Name] = true
						}
					}
				}
			}
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					if inCore {
						used[x.Name] = true
					}
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && !inCore && pkg.Name == "core" && strings.HasPrefix(x.Sel.Name, "Kf") {
						named[x.Sel.Name] = true
					}
				}
				return true
			})
		}
	})
	var registered int
	var uncalled []string
	for id := range ids {
		if !used[id] {
			continue
		}
		registered++
		if !named[id] {
			uncalled = append(uncalled, id)
		}
	}
	if registered == 0 {
		t.Fatal("no kfunc registrations found in internal/core")
	}
	sort.Strings(uncalled)
	for _, id := range uncalled {
		t.Errorf("internal/core registers %s, but no program builder outside internal/core calls it: delete the kfunc and the natives only it reaches", id)
	}
}

// funcName is fn's name, qualified by its receiver's type for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// callsNamed reports whether body calls a function or method named
// name, as a bare identifier or a selector (pkg.Name, x.Name).
func callsNamed(body ast.Node, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			switch fun := c.Fun.(type) {
			case *ast.Ident:
				found = found || fun.Name == name
			case *ast.SelectorExpr:
				found = found || fun.Sel.Name == name
			}
		}
		return !found
	})
	return found
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

// walkProduct parses every non-test Go file under internal/, cmd/ and
// examples/ and hands it to visit.
func walkProduct(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	var files int
	for _, root := range []string{"internal", "cmd", "examples"} {
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
