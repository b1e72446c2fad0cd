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
// There are no exceptions. The same scan guards the knob configs (see
// unsetKnobs): every exported field of serve.Config, shadow.Config,
// trace.CollectConfig and retry.Policy is set by a caller, or it is a
// constant. And every field of those configs and of cache.Config is read
// by its own package (see unreadFields): a field only ever set configures
// nothing.

import (
	"fmt"
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

func (d exportDecl) isMethod() bool { return strings.Contains(d.name, ".") }

// goFile is one parsed file with the import path of its directory.
type goFile struct {
	f    *ast.File
	pkg  string
	test bool
}

// parseTree parses the Go files under root, whose module path is module (a
// subdirectory's import path is module/dir, which also holds for the nested
// bench/ module).
func parseTree(root, module string) (*token.FileSet, []goFile, error) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
	return fset, files, err
}

// fileImports maps each import's local name in f to its import path.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path
	}
	return imports
}

// sortByPos orders declarations by file, then line.
func sortByPos(decls []exportDecl) {
	sort.Slice(decls, func(i, j int) bool {
		a, b := decls[i].pos, decls[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
}

// unusedExports returns the exported declarations of files that no
// reference reaches, sorted by position, plus the number scanned.
func unusedExports(fset *token.FileSet, files []goFile) (dead []exportDecl, total int) {
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
		imports := fileImports(gf.f)
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
	sortByPos(dead)
	return dead, len(decls)
}

// knobConfigs are the configs whose every exported field must be set by a
// caller: the serving configs, trace collection's and the backoff policy.
// A field nothing sets is a fixed policy, so it is a constant (or, when
// only the package's own tests vary it, an unexported test seam).
var knobConfigs = []string{
	"perspectron/internal/serve.Config",
	"perspectron/internal/shadow.Config",
	"perspectron/internal/trace.CollectConfig",
	"perspectron/internal/retry.Policy",
}

// unsetKnobs returns the exported fields of the struct types named in
// types ("importpath.Type") that no non-test file outside the declaring
// package sets, sorted by position, plus the number of fields scanned.
// Setting is syntactic: a key in a pkg.Type{...} literal, or an
// assignment x.Field = ... to a variable the same file declares with that
// type (var x pkg.Type, x := pkg.Type{...} or x := &pkg.Type{...}). The
// declaring package's own assignments (withDefaults) do not count.
func unsetKnobs(fset *token.FileSet, files []goFile, types []string) (unset []exportDecl, total int) {
	want := map[string]bool{}
	for _, typ := range types {
		want[typ] = true
	}
	var fields []exportDecl
	for _, f := range structFields(fset, files, types) {
		if ast.IsExported(f.ident) {
			fields = append(fields, f)
		}
	}
	set := map[string]bool{} // "importpath.Type.Field"
	for _, gf := range files {
		if gf.test {
			continue
		}
		imports := fileImports(gf.f)
		// typeOf names the knob type a pkg.Type or &pkg.Type{...}
		// expression denotes, or "" for anything else.
		typeOf := func(e ast.Expr) string {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			if cl, ok := e.(*ast.CompositeLit); ok {
				e = cl.Type
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return ""
			}
			if typ := imports[x.Name] + "." + sel.Sel.Name; want[typ] {
				return typ
			}
			return ""
		}
		vars := map[string]string{} // variable name -> knob type
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if typ := typeOf(n.Type); typ != "" {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								set[typ+"."+k.Name] = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					typ := typeOf(n.Type)
					if typ == "" && i < len(n.Values) {
						typ = typeOf(n.Values[i])
					}
					if typ != "" {
						vars[id.Name] = typ
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					switch lhs := lhs.(type) {
					case *ast.Ident:
						if len(n.Lhs) == len(n.Rhs) {
							if typ := typeOf(n.Rhs[i]); typ != "" {
								vars[lhs.Name] = typ
							}
						}
					case *ast.SelectorExpr:
						if x, ok := lhs.X.(*ast.Ident); ok && vars[x.Name] != "" {
							set[vars[x.Name]+"."+lhs.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range fields {
		if !set[f.pkg+"."+f.name] {
			unset = append(unset, f)
		}
	}
	sortByPos(unset)
	return unset, len(fields)
}

// structFields lists the named fields of the struct types named in types
// ("importpath.Type"), declared in non-test code.
func structFields(fset *token.FileSet, files []goFile, types []string) []exportDecl {
	want := map[string]bool{}
	for _, typ := range types {
		want[typ] = true
	}
	var fields []exportDecl
	for _, gf := range files {
		if gf.test {
			continue
		}
		for _, d := range gf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !want[gf.pkg+"."+ts.Name.Name] {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						fields = append(fields, exportDecl{fset.Position(id.Pos()), gf.pkg, ts.Name.Name + "." + id.Name, id.Name, -1})
					}
				}
			}
		}
	}
	return fields
}

// unreadFields returns the fields of the struct types named in types that
// no non-test file of the declaring package reads, sorted by position, plus
// the number of fields scanned. A read is a .Field selector that is not the
// target of an assignment; a composite-literal key is not a selector, so it
// never counts. The match is by field name within the package.
func unreadFields(fset *token.FileSet, files []goFile, types []string) (unread []exportDecl, total int) {
	read := map[string]map[string]bool{} // pkg -> selected field names
	for _, gf := range files {
		if gf.test {
			continue
		}
		if read[gf.pkg] == nil {
			read[gf.pkg] = map[string]bool{}
		}
		targets := map[*ast.SelectorExpr]bool{}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							targets[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if !targets[n] {
					read[gf.pkg][n.Sel.Name] = true
				}
			}
			return true
		})
	}
	fields := structFields(fset, files, types)
	for _, f := range fields {
		if !read[f.pkg][f.ident] {
			unread = append(unread, f)
		}
	}
	sortByPos(unread)
	return unread, len(fields)
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
	fset, files, err := parseTree(".", "perspectron")
	if err != nil {
		t.Fatal(err)
	}
	dead, total := unusedExports(fset, files)
	if total < 500 {
		t.Fatalf("scanned only %d exported declarations — the scanner is broken", total)
	}
	for _, d := range dead {
		t.Errorf("%s: exported but referenced only by its own package's tests, if at all", d)
	}
	t.Logf("%d exported declarations, %d unreferenced", total, len(dead))
}

// TestConfigKnobsAreSet fails with file:line Config.Field for every exported
// field of a knobConfigs type that no caller sets: cmd/, examples/, the
// bench/ module and other packages count, tests and the declaring package
// do not.
func TestConfigKnobsAreSet(t *testing.T) {
	fset, files, err := parseTree(".", "perspectron")
	if err != nil {
		t.Fatal(err)
	}
	unset, total := unsetKnobs(fset, files, knobConfigs)
	// The four configs declare 26 exported fields (serve 12, shadow 7,
	// CollectConfig 4, Policy 3); far fewer means the scanner missed a
	// struct.
	if total < 22 {
		t.Fatalf("scanned only %d config fields — the scanner is broken", total)
	}
	for _, d := range unset {
		t.Errorf("%s: no caller sets it; make it a constant, or an unexported field if only the package's tests vary it", d)
	}
	t.Logf("%d config fields, %d unset", total, len(unset))
}

// TestConfigFieldsAreRead fails with file:line Config.Field for every field
// of cache.Config or a knobConfigs type that its own package's non-test
// code never reads: a value that is set but never read is dead
// configuration.
func TestConfigFieldsAreRead(t *testing.T) {
	fset, files, err := parseTree(".", "perspectron")
	if err != nil {
		t.Fatal(err)
	}
	configs := append([]string{"perspectron/internal/cache.Config"}, knobConfigs...)
	unread, total := unreadFields(fset, files, configs)
	// The five configs declare 40 fields (cache.Config 7, the serving
	// configs 26, CollectConfig 4, Policy 3); far fewer means the scanner
	// missed a struct.
	if total < 32 {
		t.Fatalf("scanned only %d config fields — the scanner is broken", total)
	}
	for _, d := range unread {
		t.Errorf("%s: its package never reads it; delete it", d)
	}
	t.Logf("%d config fields, %d unread", total, len(unread))
}

// TestExportScannerFindsPlantedDeadCode runs the three scanners over a
// fixture tree with one dead function, one dead method, one Config field no
// caller sets and one Config field its package never reads, planted among
// declarations each rule keeps: a cross-package call, a method selector, a
// test oracle used by another package's tests, a String method, an iota
// block with unnamed siblings, a method on an unexported type, and Config
// fields set by a literal key and by an assignment from another package and
// read by their own package (the unset one is set only by its own package's
// defaults and tests; the unread one is only assigned by its package and
// read by its tests).
func TestExportScannerFindsPlantedDeadCode(t *testing.T) {
	fset, files, err := parseTree(filepath.Join("testdata", "exports"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	dead, total := unusedExports(fset, files)
	unset, fields := unsetKnobs(fset, files, []string{"fixture/a.Config"})
	unread, _ := unreadFields(fset, files, []string{"fixture/a.Config"})
	var got []string
	for _, d := range append(append(dead, unset...), unread...) {
		got = append(got, d.name)
	}
	if want := []string{"DeadFunc", "Widget.DeadMethod", "Config.Dead", "Config.Unread"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("scanners reported %v, %v and %v, want exactly %v (of %d declarations, %d config fields)",
			dead, unset, unread, want, total, fields)
	}
}
