package smartarrays

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// reachExceptions names the internal/ declarations that no shipped program
// and no public API reaches but that stay, one reason each. A key is the
// package path below the module, a dot, then the declaration (Type.Method
// for a method). An entry is admissible only when a test of reachable
// behaviour needs the declaration, when it is one half of a format or ABI
// whose other half ships, or when it checks input from outside the program.
var reachExceptions = map[string]string{
	"internal/graph.ReadEdgeList":          "reads the edge-list format sagen writes: the writer's round-trip oracle, fuzzed in CI",
	"internal/graph.ReadEdgeListLimit":     "ReadEdgeList's bounded form: the fuzz target's guard against input from outside the program",
	"internal/graph.MaxParsedVertices":     "the vertex bound ReadEdgeList enforces on input from outside the program",
	"internal/interop.JNIBoundary.Init":    "the JNI half of the §3 entry-point ABI mirrors every entry point the native half ships",
	"internal/interop.JNIBoundary.GetBits": "the JNI half of the §3 entry-point ABI mirrors every entry point the native half ships",
	"internal/interop.JNIBoundary.Length":  "the JNI half of the §3 entry-point ABI mirrors every entry point the native half ships",
	"internal/interop.JNIBoundary.Bits":    "the JNI half of the §3 entry-point ABI mirrors every entry point the native half ships",
}

// reachAlways are the method names a type's standard-library consumers call
// through interfaces this pass cannot see (fmt, errors, encoding/json,
// net/http, sort, io): on a reached type they count as reached.
var reachAlways = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Unwrap": true, "Format": true,
}

// TestReachability type-checks the repository from source and walks
// everything reachable from what ships: main of every cmd/ and examples/
// program, every init, every declaration of the benchmark/ module (tests
// included: it is frozen, so it is a root), every exported declaration of
// this package, and the exported methods of every named type that API
// exposes through alias targets, signatures and exported fields. An edge is
// every identifier a reached declaration uses; a reached interface method
// reaches the method of that name on every reached type that implements
// the interface. The test fails on an internal/ declaration outside that
// set, on an unexported internal/ struct field no reached code reads, and
// on a reachExceptions entry that is stale.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	p, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	r := newReacher(p)
	r.run()

	unreached, fields := r.report()
	for key, pos := range unreached {
		if _, ok := reachExceptions[key]; !ok {
			t.Errorf("%s: %s is reached by no shipped program or public API: delete it, or name it in reachExceptions with a reason", pos, key)
		}
	}
	for key := range reachExceptions {
		if _, declared := r.declared[key]; !declared {
			t.Errorf("reachExceptions names %s, which is no longer declared", key)
		} else if _, ok := unreached[key]; !ok {
			t.Errorf("reachExceptions names %s, which is now reached", key)
		}
	}
	for pos, name := range fields {
		t.Errorf("%s: field %s is never read by reached code", pos, name)
	}
}

// program is the repository, type-checked from source: the root module's
// non-test files and the benchmark/ module with its tests.
type program struct {
	fset *token.FileSet
	pkgs map[string]*pkgSource // by import path
}

type pkgSource struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

const (
	modulePath = "smartarrays"
	benchPath  = modulePath + "/benchmark"
)

// loadProgram parses every package under root, asks the go command once for
// the standard library's export data, and type-checks the module's own
// packages from source.
func loadProgram(root string) (*program, error) {
	p := &program{fset: token.NewFileSet(), pkgs: map[string]*pkgSource{}}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		path := modulePath
		if rel := filepath.ToSlash(dir); rel != "." {
			path += "/" + rel
		}
		names := bp.GoFiles
		if path == benchPath || strings.HasPrefix(path, benchPath+"/") {
			names = append(append([]string{}, names...), bp.TestGoFiles...)
		}
		pkg := &pkgSource{path: path}
		for _, name := range names {
			f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		p.pkgs[path] = pkg
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := map[string]bool{}
	for _, pkg := range p.pkgs {
		for _, f := range pkg.files {
			for _, spec := range f.Imports {
				if path := strings.Trim(spec.Path.Value, `"`); !p.own(path) {
					std[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	gc := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		pkg, ok := p.pkgs[path]
		if !ok {
			return gc.Import(path)
		}
		if pkg.types == nil {
			pkg.info = &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			conf := types.Config{Importer: imp}
			var err error
			if pkg.types, err = conf.Check(path, p.fset, pkg.files, pkg.info); err != nil {
				return nil, err
			}
		}
		return pkg.types, nil
	}
	for path := range p.pkgs {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *program) own(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reacher walks the reference graph of a program from its roots.
type reacher struct {
	p        *program
	decls    map[types.Object]decl   // package-level objects and methods
	declared map[string]types.Object // subject key -> object, internal/ only
	reached  map[types.Object]bool
	work     []types.Object
	exposed  map[*types.Named]bool

	// interface methods and named types reached so far, for the
	// implementation edges.
	ifaceMethods []*types.Func
	namedTypes   []*types.Named

	writes map[*ast.Ident]bool // field identifiers that are only written
	reads  map[any]bool        // fieldKey of every field reached code reads
	anon   map[*types.Var]*types.Struct
}

// decl is a package-level object's or method's declaration.
type decl struct {
	node ast.Node
	pkg  *pkgSource
}

func newReacher(p *program) *reacher {
	r := &reacher{
		p: p, decls: map[types.Object]decl{},
		declared: map[string]types.Object{}, reached: map[types.Object]bool{},
		exposed: map[*types.Named]bool{}, writes: map[*ast.Ident]bool{},
		reads: map[any]bool{}, anon: map[*types.Var]*types.Struct{},
	}
	for _, pkg := range p.pkgs {
		named := map[*ast.StructType]bool{}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				r.indexDecl(pkg, d, named)
			}
			r.indexWrites(f)
		}
		// Fields of anonymous struct types are matched by type, not by
		// object: identical literals declare distinct field objects.
		for expr, tv := range pkg.info.Types {
			st, ok := expr.(*ast.StructType)
			if !ok || named[st] {
				continue
			}
			s := tv.Type.(*types.Struct)
			for i := 0; i < s.NumFields(); i++ {
				r.anon[s.Field(i)] = s
			}
		}
	}
	return r
}

func (r *reacher) indexDecl(pkg *pkgSource, d ast.Decl, named map[*ast.StructType]bool) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := pkg.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		r.decls[obj] = decl{node, pkg}
		if strings.HasPrefix(pkg.path, modulePath+"/internal/") && !(id.Name == "init" && isFunc(obj)) {
			r.declared[r.key(obj)] = obj
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add(d.Name, d)
	case *ast.GenDecl:
		var last *ast.ValueSpec
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if st, ok := s.Type.(*ast.StructType); ok {
					named[st] = true
				}
				add(s.Name, s)
			case *ast.ValueSpec:
				// An implicitly repeated const spec uses the type and
				// values of the last explicit one.
				node := ast.Node(s)
				if s.Type == nil && s.Values == nil && last != nil {
					node = &ast.ValueSpec{Names: s.Names, Type: last.Type, Values: last.Values}
				} else {
					last = s
				}
				for _, id := range s.Names {
					add(id, node)
				}
			}
		}
	}
}

// indexWrites records the field identifiers that are written: assignment
// targets, inc/dec operands and composite-literal keys.
func (r *reacher) indexWrites(f *ast.File) {
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			r.writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				r.writes[id] = true
			}
		}
		return true
	})
}

func isFunc(obj types.Object) bool {
	_, ok := obj.(*types.Func)
	return ok
}

// key names a declaration as reachExceptions does.
func (r *reacher) key(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/") + "." + name
}

func (r *reacher) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj == nil || obj.Pkg() == nil || r.reached[obj] {
		return
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.reached[obj] = true
			r.ifaceMethods = append(r.ifaceMethods, f)
			return
		}
	}
	if _, ok := r.decls[obj]; !ok {
		return
	}
	r.reached[obj] = true
	r.work = append(r.work, obj)
}

// run reaches the roots, then walks to a fixed point.
func (r *reacher) run() {
	for obj, d := range r.decls {
		switch pkg := d.pkg; {
		case pkg.path == benchPath || strings.HasPrefix(pkg.path, benchPath+"/"):
			r.reach(obj)
		case isFunc(obj) && obj.Name() == "init":
			r.reach(obj)
		case isFunc(obj) && obj.Name() == "main" && pkg.types.Name() == "main":
			r.reach(obj)
		case pkg.path == modulePath && obj.Exported() && obj.Parent() == pkg.types.Scope():
			r.reach(obj)
			r.expose(obj.Type())
		}
	}
	for {
		for len(r.work) > 0 {
			obj := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			r.visit(obj)
		}
		before := len(r.reached)
		r.implementations()
		if len(r.reached) == before && len(r.work) == 0 {
			return
		}
	}
}

// visit walks one reached declaration.
func (r *reacher) visit(obj types.Object) {
	d := r.decls[obj]
	pkg := d.pkg
	if tn, ok := obj.(*types.TypeName); ok {
		if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && !tn.IsAlias() {
			r.namedTypes = append(r.namedTypes, n)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); reachAlways[m.Name()] {
					r.reach(m)
				}
			}
		}
	}
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			use := pkg.info.Uses[n]
			if v, ok := use.(*types.Var); ok && v.IsField() && !r.writes[n] {
				r.reads[r.fieldKey(v)] = true
			}
			r.reach(use)
		case *ast.MapType:
			r.readKeyFields(pkg.info.Types[n.Key].Type)
		}
		return true
	})
}

// readKeyFields marks every field of a struct map key read: hashing and
// comparing the key reads them all.
func (r *reacher) readKeyFields(t types.Type) {
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < s.NumFields(); i++ {
		r.reads[r.fieldKey(s.Field(i))] = true
		r.readKeyFields(s.Field(i).Type())
	}
}

func (r *reacher) fieldKey(v *types.Var) any {
	v = v.Origin()
	if s, ok := r.anon[v]; ok {
		return v.Pkg().Path() + " " + types.TypeString(s, nil) + "." + v.Name()
	}
	return v
}

// expose reaches the exported methods of every named type t makes visible
// to a library user, through alias targets, signatures and exported fields.
func (r *reacher) expose(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		o := t.Origin()
		if r.exposed[o] || o.Obj().Pkg() == nil || !r.p.own(o.Obj().Pkg().Path()) {
			return
		}
		r.exposed[o] = true
		r.reach(o.Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.expose(t.TypeArgs().At(i))
		}
		for i := 0; i < o.NumMethods(); i++ {
			if m := o.Method(i); m.Exported() {
				r.reach(m)
				r.expose(m.Type())
			}
		}
		r.expose(o.Underlying())
	case *types.Pointer:
		r.expose(t.Elem())
	case *types.Slice:
		r.expose(t.Elem())
	case *types.Array:
		r.expose(t.Elem())
	case *types.Chan:
		r.expose(t.Elem())
	case *types.Map:
		r.expose(t.Key())
		r.expose(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				r.expose(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				r.expose(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				r.reach(m)
				r.expose(m.Type())
			}
		}
	}
}

// implementations reaches, for every reached interface method, the method
// of that name on every reached named type that implements the interface.
func (r *reacher) implementations() {
	for _, m := range r.ifaceMethods {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range r.namedTypes {
			if types.IsInterface(n) {
				continue
			}
			if n.TypeParams().Len() == 0 && !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name()); isFunc(obj) {
				r.reach(obj)
			}
		}
	}
}

// report maps each unreached internal/ declaration to its position, and
// the position of each unexported field that a reached internal/
// declaration defines and no reached code reads to the field's name.
func (r *reacher) report() (unreached, fields map[string]string) {
	unreached = map[string]string{}
	for key, obj := range r.declared {
		if !r.reached[obj] {
			unreached[key] = r.p.fset.Position(obj.Pos()).String()
		}
	}
	fields = map[string]string{}
	for obj := range r.reached {
		d, ok := r.decls[obj]
		if !ok || !strings.HasPrefix(d.pkg.path, modulePath+"/internal/") {
			continue
		}
		pkg := d.pkg
		ast.Inspect(d.node, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					v := pkg.info.Defs[id].(*types.Var)
					if !v.Exported() && id.Name != "_" && !r.reads[r.fieldKey(v)] {
						fields[r.p.fset.Position(id.Pos()).String()] = r.key(obj) + "." + id.Name
					}
				}
			}
			return true
		})
	}
	return unreached, fields
}
