package bufqos_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the exported identifiers under internal/ that
// no non-test code uses and that stay exported anyway, each with its
// reason. An entry that is gone, or that has gained a non-test user,
// fails TestNoTestOnlyExports: the list only names what it must.
var exportAllowlist = map[string]string{
	"internal/core.WFQDelayBound":       "the WFQ end-to-end delay bound the planner's multiclass-FIFO bounds are to sit beside (ROADMAP.md, item 7b)",
	"internal/scheme.MarkdownCatalogue": "renders the README scheme table; the README drift gate (TestReadmeSchemeCatalogue) compares against it",
	"internal/network.SourceNone":       "zero value of network.SourceKind: a flow with no source",
	"internal/network.RegulatorNone":    "zero value of network.RegulatorKind: a flow with no regulator",
	"internal/source.NewRecorder":       "internal/network's tests record what a flow delivers and check it against the flow's (σ, ρ) envelope with Recorder.ConformsTo; Go shares no _test.go code across packages",
}

// TestNoTestOnlyExports fails on an exported top-level name declared in
// a non-test file under internal/ that no non-test code of the module
// names (cmd/, bench/ and examples/ included), unless exportAllowlist
// gives its reason. Such a name is either dead or a test helper, and a
// test helper belongs in the _test.go files of the package whose tests
// use it.
func TestNoTestOnlyExports(t *testing.T) {
	unused, err := testOnlyExports(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkExports(unused, exportAllowlist) {
		t.Error(msg)
	}
}

// TestNoTestOnlyExportsFlagsAPlant runs the scan on a fixture module
// with one planted test-only export and its allowlisted twin.
func TestNoTestOnlyExportsFlagsAPlant(t *testing.T) {
	fixture := fstest.MapFS{
		"go.mod": {Data: []byte("module m\n\ngo 1.22\n")},
		"internal/a/a.go": {Data: []byte(`package a

// Used has a non-test user in cmd/.
func Used() int { return helper() + Kind(Zero) }

func helper() int { return Local }

// Local is used only inside its own package.
const Local = 1

// Planted is called only from a test.
func Planted() int { return Planted() }

// Twin is called only from a test, and allowlisted.
func Twin() int { return 0 }

// Kind's zero value is used; Other is not.
type Kind int

const (
	Zero Kind = iota
	Other
)

// Recv's only mention is its own method's receiver.
type Recv struct{ Planted int }

func (r Recv) M() int { return r.Planted }
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

import "testing"

func TestA(t *testing.T) { _ = Planted() + Twin() + int(Other); _ = Recv{}.M() }
`)},
		"cmd/x/main.go": {Data: []byte(`package main

import alias "m/internal/a"

func main() { _ = alias.Used() }
`)},
		"testdata/b.go": {Data: []byte(`package b

import "m/internal/a"

var _ = a.Planted()
`)},
	}
	unused, err := testOnlyExports(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range unused {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"internal/a.Other", "internal/a.Planted", "internal/a.Recv", "internal/a.Twin"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("scan found %v, want %v", got, want)
	}
	msgs := checkExports(unused, map[string]string{
		"internal/a.Twin":  "its allowlisted twin",
		"internal/a.Other": "an enum value",
		"internal/a.Recv":  "a receiver",
		"internal/a.Used":  "stale: it has a user",
		"internal/a.Gone":  "stale: not declared",
	})
	if len(msgs) != 3 ||
		!strings.Contains(msgs[0], "internal/a.Planted") ||
		!strings.Contains(msgs[1], "internal/a.Gone") ||
		!strings.Contains(msgs[2], "internal/a.Used") {
		t.Fatalf("checkExports reported %q, want Planted flagged and Gone and Used stale", msgs)
	}
}

// checkExports compares the scan with an allowlist: it reports each
// unused name the list does not give a reason for, then each entry
// that is not an unused name (gone, or used by now), both sorted.
func checkExports(unused map[string]bool, allow map[string]string) []string {
	var flagged, stale []string
	for name := range unused {
		if _, ok := allow[name]; !ok {
			flagged = append(flagged, fmt.Sprintf("%s is exported but only tests (or nothing) use it: delete it, move it into its package's _test.go files, or give exportAllowlist a reason", name))
		}
	}
	for name := range allow {
		if !unused[name] {
			stale = append(stale, fmt.Sprintf("exportAllowlist entry %s is stale: it is not declared under internal/, or non-test code uses it", name))
		}
	}
	sort.Strings(flagged)
	sort.Strings(stale)
	return append(flagged, stale...)
}

// testOnlyExports parses the Go module rooted at fsys and returns, as
// "dir.Name", every exported top-level name (function, type, constant
// or variable; methods are out of scope, since an interface call hides
// its callee) declared in a non-test file under internal/ that no
// non-test file names anywhere but in its own declaration. A use is
// pkg.Name through an import of the package's path, or Name inside the
// package; a method's receiver is not a use of its type. Hidden
// directories and testdata are skipped.
func testOnlyExports(fsys fs.FS) (map[string]bool, error) {
	module, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	type decl struct {
		file     *ast.File
		pos, end token.Pos
	}
	type file struct {
		dir string
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Dir(p), f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	decls := map[string]decl{} // "dir.Name" -> its declaration
	for _, f := range files {
		if f.dir != "internal" && !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			if id.IsExported() {
				decls[f.dir+"."+id.Name] = decl{f.ast, node.Pos(), node.End()}
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}

	pkgName := map[string]string{} // dir -> its package's name
	for _, f := range files {
		pkgName[f.dir] = f.ast.Name.Name
	}
	used := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> dir, for module imports
		for _, imp := range f.ast.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			dir := strings.TrimPrefix(ip, module+"/")
			name, ok := pkgName[dir]
			if err != nil || !ok {
				continue
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		use := func(id *ast.Ident, key string) {
			if d, ok := decls[key]; ok && (d.file != f.ast || id.Pos() < d.pos || id.Pos() >= d.end) {
				used[key] = true
			}
		}
		// walk records every name n uses: pkg.Name through a module
		// import, or a bare Name of this package. Selector right-hand
		// sides and field, parameter and result names are not uses.
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.SelectorExpr:
					if x, ok := m.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							use(m.Sel, dir+"."+m.Sel.Name)
							return false
						}
					}
					walk(m.X)
					return false
				case *ast.Field:
					walk(m.Type)
					return false
				case *ast.Ident:
					use(m, f.dir+"."+m.Name)
				}
				return true
			})
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				// A method's receiver and name are not uses.
				walk(fd.Type)
				if fd.Body != nil {
					walk(fd.Body)
				}
				continue
			}
			walk(d)
		}
	}

	unused := map[string]bool{}
	for key := range decls {
		if !used[key] {
			unused[key] = true
		}
	}
	return unused, nil
}

// modulePath reads the module path from fsys's go.mod.
func modulePath(fsys fs.FS) (string, error) {
	f, err := fsys.Open("go.mod")
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("go.mod names no module")
}
