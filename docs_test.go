package eevfs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIdent is a backticked `Qual.Name` or `Qual.Name()` in the docs: one
// dot, both sides Go identifiers without underscores.
var docIdent = regexp.MustCompile("`([A-Za-z][A-Za-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\(\\))?`")

// docBare is a backticked bare camelCase name, `saveState` or `onIdle()`:
// a Go identifier without underscores in which a lower-case letter is
// followed by an upper-case one.
var docBare = regexp.MustCompile("`([A-Za-z][A-Za-z0-9]*[a-z][A-Z][A-Za-z0-9]*)(?:\\(\\))?`")

// declared parses every Go file of the module, tests included, and
// returns its package names, its type names and every name it declares
// as a func, method, type, struct field, interface method, const or var.
func declared(t *testing.T) (pkgs, types, names map[string]bool) {
	t.Helper()
	pkgs, types, names = map[string]bool{}, map[string]bool{}, map[string]bool{}
	fields := func(l *ast.FieldList) {
		for _, f := range l.List {
			for _, id := range f.Names {
				names[id.Name] = true
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkg := strings.TrimSuffix(f.Name.Name, "_test"); pkg != "main" {
			pkgs[pkg] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name], types[n.Name.Name] = true, true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.StructType:
				fields(n.Fields)
			case *ast.InterfaceType:
				fields(n.Methods)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, types, names
}

// TestDocsNameDeclaredIdentifiers: every `pkg.Exported`, `Type.Member`
// and bare camelCase name that README.md, DESIGN.md or EXPERIMENTS.md
// names is declared somewhere in the module, so the docs cannot go on
// naming code that was renamed or deleted.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	pkgs, types, names := declared(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				qual, name := m[1], m[2]
				if name == "go" { // `segment.go` is a file, not a member
					continue
				}
				if (types[qual] || pkgs[qual] && token.IsExported(name)) && !names[name] {
					t.Errorf("%s:%d: %s names %s, which no Go file declares", doc, i+1, m[0], name)
				}
			}
			for _, m := range docBare.FindAllStringSubmatch(line, -1) {
				if !names[m[1]] {
					t.Errorf("%s:%d: %s names %s, which no Go file declares", doc, i+1, m[0], m[1])
				}
			}
		}
	}
}
