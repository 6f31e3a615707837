package ecmserver

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"

	"ecmsketch"
)

// The surface golden lists, one per line, everything a user or operator can
// name: every exported identifier of the three library packages, every route
// NewOver mounts at a site and at a coordinator, every flag of the three
// binaries. A change that widens or narrows the surface has to touch it.
//
// The test lives here rather than at the module root because only an
// in-package test can read the patterns a Server mounted.
const surfaceGolden = "../testdata/surface.golden"

const surfaceHeader = `# What this module promises, apart from how it is built: one line per exported
# identifier (id), mounted route (route) and command-line flag (flag).
# Checked by TestSurface; after an intended change regenerate with
#   go test ./ecmserver -run TestSurface -update
`

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden from the tree")

func TestSurface(t *testing.T) {
	got := surfaceHeader + strings.Join(renderSurface(t), "\n") + "\n"
	if *updateSurface {
		if err := os.WriteFile(surfaceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range surfaceDiff(string(want), got) {
		t.Error(d)
	}
	if t.Failed() {
		t.Log("if the change is intended: go test ./ecmserver -run TestSurface -update, and say so in the PR")
	}
}

// TestSurfaceDiffNamesTheLine pins the failure TestSurface produces: an
// identifier, route or flag added to or dropped from the tree is reported by
// name, the dropped ones with their line in the golden.
func TestSurfaceDiffNamesTheLine(t *testing.T) {
	golden := surfaceHeader +
		"id ecmclient func (c *Client) QueryBatch(q ecmsketch.QueryBatch) (ecmsketch.QueryResult, error)\n" +
		"route site GET /v1/query\n" +
		"flag ecmserve -sites string \"\"\n"
	for _, tc := range []struct {
		name, got string
		want      []string
	}{
		{"unchanged", golden, nil},
		{"identifier added", golden + "id ecmclient func (c *Client) Query2()\n",
			[]string{"not in surface.golden: id ecmclient func (c *Client) Query2()"}},
		{"route added", golden + "route site GET /v1/estimate\n",
			[]string{"not in surface.golden: route site GET /v1/estimate"}},
		{"flag removed", strings.Replace(golden, "flag ecmserve -sites string \"\"\n", "", 1),
			[]string{"surface.golden:7: gone from the tree: flag ecmserve -sites string \"\""}},
		{"signature changed", strings.Replace(golden, "(ecmsketch.QueryResult, error)", "ecmsketch.QueryResult", 1),
			[]string{
				"surface.golden:5: gone from the tree: id ecmclient func (c *Client) QueryBatch(q ecmsketch.QueryBatch) (ecmsketch.QueryResult, error)",
				"not in surface.golden: id ecmclient func (c *Client) QueryBatch(q ecmsketch.QueryBatch) ecmsketch.QueryResult",
			}},
	} {
		got := surfaceDiff(golden, tc.got)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}

// surfaceDiff reports the golden's lines the tree no longer renders and the
// rendered lines the golden lacks. Comment lines are not surface.
func surfaceDiff(golden, rendered string) []string {
	lines := func(s string) []string { return strings.Split(strings.TrimRight(s, "\n"), "\n") }
	have := map[string]bool{}
	for _, l := range lines(rendered) {
		have[l] = true
	}
	var out []string
	pinned := map[string]bool{}
	for i, l := range lines(golden) {
		pinned[l] = true
		if !have[l] && !strings.HasPrefix(l, "#") {
			out = append(out, fmt.Sprintf("surface.golden:%d: gone from the tree: %s", i+1, l))
		}
	}
	for _, l := range lines(rendered) {
		if !pinned[l] && !strings.HasPrefix(l, "#") {
			out = append(out, "not in surface.golden: "+l)
		}
	}
	return out
}

func renderSurface(t *testing.T) []string {
	var out []string
	for _, p := range []struct{ name, dir string }{{"ecmsketch", ".."}, {"ecmserver", "."}, {"ecmclient", "../ecmclient"}} {
		out = append(out, renderIdentifiers(t, p.name, p.dir)...)
	}

	site, err := New(Config{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	coordinator, err := NewOver(Config{}, ecmsketch.NewCoordinator())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		tier string
		srv  *Server
	}{{"site", site}, {"coordinator", coordinator}} {
		patterns := append([]string(nil), s.srv.patterns...)
		sort.Strings(patterns)
		for _, p := range patterns {
			out = append(out, "route "+s.tier+" "+p)
		}
	}

	for _, bin := range []string{"ecmserve", "ecmgen", "ecmbench"} {
		out = append(out, renderFlags(t, bin)...)
	}
	return out
}

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// loadDoc is go/doc's view of the package in dir: exported declarations only.
func loadDoc(t *testing.T, dir, name string) (*doc.Package, *token.FileSet) {
	fset := token.NewFileSet()
	pkg, err := doc.NewFromFiles(fset, parseDir(t, fset, dir), name)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, fset
}

// renderIdentifiers lists what go/doc shows of the package in dir: consts,
// vars, funcs with their signatures, types with their kind, and each type's
// exported fields, interface methods, constructors and methods. An alias of
// an internal type (type Sketch = core.Sketch) is followed to its target,
// whose fields and methods callers reach through the alias.
func renderIdentifiers(t *testing.T, name, dir string) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, "id "+name+" "+fmt.Sprintf(format, args...)) }
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, n := range v.Names {
				add("%s %s", kind, n)
			}
		}
	}
	funcs := func(fset *token.FileSet, fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Doc, f.Decl.Body = nil, nil
			var b bytes.Buffer
			if err := printer.Fprint(&b, fset, f.Decl); err != nil {
				t.Fatal(err)
			}
			add("%s", strings.Join(strings.Fields(b.String()), " "))
		}
	}
	// members lists a type's fields or interface methods, then its methods;
	// own is false for the internal target of an alias, whose constructors
	// and typed constants callers cannot name.
	members := func(as string, typ *doc.Type, fset *token.FileSet, own bool) {
		switch u := typ.Decl.Specs[0].(*ast.TypeSpec).Type.(type) {
		case *ast.StructType:
			for _, f := range u.Fields.List {
				if len(f.Names) == 0 {
					add("field %s.%s (embedded)", as, types.ExprString(f.Type))
				}
				for _, n := range f.Names {
					add("field %s.%s %s", as, n, types.ExprString(f.Type))
				}
			}
		case *ast.InterfaceType:
			for _, m := range u.Methods.List {
				if len(m.Names) == 0 {
					add("method %s.%s (embedded)", as, types.ExprString(m.Type))
				}
				for _, n := range m.Names {
					add("method %s.%s%s", as, n, strings.TrimPrefix(types.ExprString(m.Type), "func"))
				}
			}
		}
		if own {
			values("const", typ.Consts)
			values("var", typ.Vars)
			funcs(fset, typ.Funcs)
		}
		funcs(fset, typ.Methods)
	}
	pkg, fset := loadDoc(t, dir, name)
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(fset, pkg.Funcs)
	for _, typ := range pkg.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		switch spec.Type.(type) {
		case *ast.StructType:
			add("type %s struct", typ.Name)
		case *ast.InterfaceType:
			add("type %s interface", typ.Name)
		default:
			eq := ""
			if spec.Assign.IsValid() {
				eq = "= "
			}
			add("type %s %s%s", typ.Name, eq, types.ExprString(spec.Type))
		}
		members(typ.Name, typ, fset, true)
		sel, ok := spec.Type.(*ast.SelectorExpr)
		if !ok || !spec.Assign.IsValid() {
			continue
		}
		internal := sel.X.(*ast.Ident).Name
		if _, err := os.Stat("../internal/" + internal); err != nil {
			continue
		}
		target, tfset := loadDoc(t, "../internal/"+internal, internal)
		for _, tt := range target.Types {
			if tt.Name == sel.Sel.Name {
				members(typ.Name, tt, tfset, false)
			}
		}
	}
	sort.Strings(out)
	return out
}

// flagKinds are the flag.FlagSet declaring methods renderFlags reads, each
// also in its XxxVar form.
var flagKinds = map[string]bool{"Bool": true, "Duration": true, "Float64": true, "Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true}

// renderFlags lists the flags cmd/<bin>'s registerFlags declares on its
// FlagSet — name, kind, and the default as the source spells it — read from
// the source because a main package cannot be imported. A flag declared
// through the flag package's globals anywhere in the command, or by a method
// this reader does not know, fails the test: registerFlags is the whole list.
func renderFlags(t *testing.T, bin string) []string {
	fset := token.NewFileSet()
	var out []string
	found := false
	for _, f := range parseDir(t, fset, "../cmd/"+bin) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			set := "" // the *flag.FlagSet parameter, inside registerFlags only
			if fn.Name.Name == "registerFlags" && fn.Recv == nil && len(fn.Type.Params.List) == 1 {
				set, found = fn.Type.Params.List[0].Names[0].Name, true
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				kind, isVar := strings.CutSuffix(sel.Sel.Name, "Var") // XxxVar(&dst, name, default, usage)
				onSet := set != "" && recv.Name == set
				switch {
				case !flagKinds[kind]:
					if onSet {
						t.Errorf("%s: registerFlags calls %s.%s, which this test cannot render", fset.Position(call.Pos()), set, sel.Sel.Name)
					}
				case recv.Name == "flag":
					t.Errorf("%s: flag.%s declares a flag outside registerFlags", fset.Position(call.Pos()), sel.Sel.Name)
				case onSet:
					args := call.Args
					if isVar {
						args = args[1:]
					}
					lit, ok := args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("%s: flag name is not a string literal", fset.Position(call.Pos()))
					}
					out = append(out, fmt.Sprintf("flag %s -%s %s %s", bin, strings.Trim(lit.Value, `"`), strings.ToLower(kind), types.ExprString(args[1])))
				}
				return true
			})
		}
	}
	if !found {
		t.Fatalf("cmd/%s has no registerFlags(*flag.FlagSet)", bin)
	}
	sort.Strings(out)
	return out
}
