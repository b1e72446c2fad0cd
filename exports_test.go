package perspectron

// Public-surface guard: every exported declaration in non-test Go must be
// referenced by non-test Go somewhere in the tree (cmd/, examples/ and the
// bench/ module count, since bench/ is a real caller), or by a _test.go file
// of another package, which makes it a shared test oracle or fixture. An
// export only its own package's tests use is unexported or moved into those
// tests; an export nothing uses is deleted. The scan is syntactic (go/ast):
//
//   - a package-level name is referenced by a pkg.Name selector from another
//     package, or by a bare identifier inside its own package;
//   - a method is referenced by any selector of its name;
//   - methods on unexported types are skipped;
//   - a const in an iota block is referenced when any sibling in the block
//     is, since its position fixes every later value (cache.TransUpgradeReq
//     names a gem5 counter; deleting it would shift NumTransTypes);
//   - methods the standard library calls through an interface (String,
//     Error, ...) need no selector.
//
// exportAllowlist holds the only exceptions: root-package API that README
// documents but no caller in this tree uses.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist maps "pkg.Name" or "pkg.Type.Method" to why the export
// stays without a caller. Every entry must be root-package API named in
// README.md.
var exportAllowlist = map[string]string{
	"perspectron.Detector.Update": "the paper's §IV-G1 vendor-patch path: retrain with newly known attack classes",
}

// stdlibInterfaceMethods are methods the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, http.Handler, sort, heap
// and io), so no selector in this tree need name them.
var stdlibInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true,
	"Len":       true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// exportDecl is one exported declaration in non-test code.
type exportDecl struct {
	pos   token.Position
	pkg   string // import path of the declaring package
	name  string // "Name", or "Type.Method" for a method
	ident string // the identifier a reference uses
	group int    // iota const block id, or -1
}

func (d exportDecl) String() string {
	return fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name)
}

// key is the allowlist key: "pkg.Name" with the import path's last element.
func (d exportDecl) key() string {
	return d.pkg[strings.LastIndex(d.pkg, "/")+1:] + "." + d.name
}

func (d exportDecl) isMethod() bool { return strings.Contains(d.name, ".") }

// goFile is one parsed file with the import path of its directory.
type goFile struct {
	f    *ast.File
	pkg  string
	test bool
}

// unusedExports scans the Go files under root, whose module path is module
// (a subdirectory's import path is module/dir, which also holds for the
// nested bench/ module), and returns the exported declarations no
// reference reaches, sorted by position, plus the number scanned.
func unusedExports(root, module string) (dead []exportDecl, total int, err error) {
	fset := token.NewFileSet()
	var files []goFile
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir, _ := filepath.Rel(root, filepath.Dir(path)); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		files = append(files, goFile{f, pkg, strings.HasSuffix(path, "_test.go")})
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	decls, declIdents := exportedDecls(fset, files)

	// own[pkg][name]: a bare identifier in pkg's non-test code.
	// qualified[pkg][name]: a pkg.Name selector from another package.
	// selected[name]: any other selector in non-test code (methods).
	// testSelected[name][pkg]: a selector in pkg's tests.
	own := map[string]map[string]bool{}
	qualified := map[string]map[string]bool{}
	selected := map[string]bool{}
	testSelected := map[string]map[string]bool{}
	mark := func(m map[string]map[string]bool, k1, k2 string) {
		if m[k1] == nil {
			m[k1] = map[string]bool{}
		}
		m[k1][k2] = true
	}
	for _, gf := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range gf.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						// An external test package imports its own package;
						// that reference is the package's own test.
						if !gf.test || path != gf.pkg {
							mark(qualified, path, n.Sel.Name)
						}
						return false
					}
				}
				if gf.test {
					mark(testSelected, n.Sel.Name, gf.pkg)
				} else {
					selected[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !gf.test && !declIdents[n] {
					mark(own, gf.pkg, n.Name)
				}
			}
			return true
		})
	}

	referenced := func(d exportDecl) bool {
		if !d.isMethod() {
			return own[d.pkg][d.ident] || qualified[d.pkg][d.ident]
		}
		if selected[d.ident] {
			return true
		}
		for pkg := range testSelected[d.ident] {
			if pkg != d.pkg {
				return true
			}
		}
		return false
	}
	liveGroup := map[int]bool{}
	for _, d := range decls {
		if d.group >= 0 && referenced(d) {
			liveGroup[d.group] = true
		}
	}
	for _, d := range decls {
		if !referenced(d) && !(d.group >= 0 && liveGroup[d.group]) {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return dead, len(decls), nil
}

// exportedDecls lists the exported declarations of the non-test files, and
// the identifiers that declare them (which are not references).
func exportedDecls(fset *token.FileSet, files []goFile) ([]exportDecl, map[*ast.Ident]bool) {
	var decls []exportDecl
	declIdents := map[*ast.Ident]bool{}
	add := func(id *ast.Ident, pkg, name string, group int) {
		declIdents[id] = true
		decls = append(decls, exportDecl{fset.Position(id.Pos()), pkg, name, id.Name, group})
	}
	groups := 0
	for _, gf := range files {
		if gf.test {
			continue
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name, gf.pkg, d.Name.Name, -1)
					continue
				}
				recv := receiverType(d.Recv.List[0].Type)
				if ast.IsExported(recv) && !stdlibInterfaceMethods[d.Name.Name] {
					add(d.Name, gf.pkg, recv+"."+d.Name.Name, -1)
				}
			case *ast.GenDecl:
				group := -1
				if d.Tok == token.CONST && d.Lparen.IsValid() && usesIota(d) {
					group = groups
					groups++
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name, gf.pkg, s.Name.Name, -1)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								add(id, gf.pkg, id.Name, group)
							}
						}
					}
				}
			}
		}
	}
	return decls, declIdents
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// usesIota reports whether a const block's values mention iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

func TestExportsAreReferenced(t *testing.T) {
	dead, total, err := unusedExports(".", "perspectron")
	if err != nil {
		t.Fatal(err)
	}
	if total < 500 {
		t.Fatalf("scanned only %d exported declarations — the scanner is broken", total)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, d := range dead {
		if _, ok := exportAllowlist[d.key()]; ok {
			used[d.key()] = true
			continue
		}
		t.Errorf("%s: exported but referenced only by its own package's tests, if at all", d)
	}
	for key := range exportAllowlist {
		name := strings.TrimPrefix(key, "perspectron.")
		switch {
		case name == key:
			t.Errorf("allowlist entry %s is not root-package API", key)
		case !strings.Contains(string(readme), name):
			t.Errorf("allowlist entry %s is not documented in README.md", key)
		case !used[key]:
			t.Errorf("allowlist entry %s is stale: it has a caller or no declaration", key)
		}
	}
	t.Logf("%d exported declarations, %d unreferenced (%d allowlisted)", total, len(dead), len(used))
}

// TestExportScannerFindsPlantedDeadCode runs the scanner over a fixture
// tree with one dead function and one dead method planted among exports
// each rule keeps: a cross-package call, a method selector, a test oracle
// used by another package's tests, a String method, an iota block with
// unnamed siblings and a method on an unexported type.
func TestExportScannerFindsPlantedDeadCode(t *testing.T) {
	dead, total, err := unusedExports(filepath.Join("testdata", "exports"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	if want := []string{"DeadFunc", "Widget.DeadMethod"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("scanner reported %v, want exactly %v (of %d declarations)", dead, want, total)
	}
}
