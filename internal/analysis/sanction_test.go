package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incshrink/internal/analysis"
)

// moduleDecls indexes the module's non-test, non-testdata sources: the
// module-relative directory of every package, and every function and method
// as "<pkg-dir>.<Recv.>Name" — the key format of OblivTaintSanctioned.
type moduleDecls struct {
	pkgs  map[string]bool
	funcs map[string]bool
}

func loadModuleDecls(t *testing.T) moduleDecls {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	d := moduleDecls{pkgs: map[string]bool{}, funcs: map[string]bool{}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		if pkg == "." {
			pkg = ""
		}
		d.pkgs[pkg] = true
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := pkg + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			d.funcs[key+fd.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// recvName unwraps *T and generic T[P] receivers to the base type name.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
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

// hasPackage reports whether a module-relative prefix names a package
// directory or a directory holding packages ("" is the module root).
func (d moduleDecls) hasPackage(prefix string) bool {
	if d.pkgs[prefix] {
		return true
	}
	for p := range d.pkgs {
		if prefix != "" && strings.HasPrefix(p, prefix+"/") {
			return true
		}
	}
	return false
}

// TestSanctionTablesResolve: every entry of the analyzers' package and
// sanction tables must name real code. A stale entry silently sanctions
// nothing today and whatever reuses the name tomorrow.
func TestSanctionTablesResolve(t *testing.T) {
	d := loadModuleDecls(t)

	for _, fn := range analysis.OblivTaintSanctioned {
		if !d.funcs[fn] {
			t.Errorf("OblivTaintSanctioned entry %q names no declaration", fn)
		}
	}
	for name, table := range map[string][]string{
		"OblivTaintPackages": analysis.OblivTaintPackages,
		"RNGDrawPackages":    analysis.RNGDrawPackages,
		"DetClockSanctioned": analysis.DetClockSanctioned,
	} {
		for _, p := range table {
			if !d.hasPackage(p) {
				t.Errorf("%s entry %q names no package directory", name, p)
			}
		}
	}

	// The resolver itself must reject names that do not exist.
	if d.funcs["internal/oblivious.NoSuchOperator"] || d.funcs["internal/oblivious.NoSuchType.Method"] {
		t.Error("resolver accepted a missing declaration")
	}
	if d.hasPackage("internal/nosuchpackage") || d.hasPackage("internal/obl") {
		t.Error("resolver accepted a missing package directory")
	}
	if !d.funcs["internal/oblivious.Buffer.SetReal"] || !d.hasPackage("") {
		t.Error("resolver missed a known declaration or the module root")
	}
}
