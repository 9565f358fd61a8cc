package archetype

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// pinnedPackages are the packages whose float results are compared bit
// for bit or pinned by a golden.
var pinnedPackages = []string{"fdtd", "machine", "wave2d", "fsum", "mesh", "grid"}

// TestNoFusibleFloatArithmetic holds the program's float arithmetic to
// one rounding per operation on every GOARCH.  Go may fuse x*y + z into
// one multiply-add (it does on arm64, ppc64le, s390x and riscv64), and
// only an explicit conversion, float64(x*y), forbids it.  The test
// type-checks the non-test files of every pinned package, selected by
// go/build for this GOARCH and for arm64, and fails on each float
// expression a*b ± c or c ± a*b and each a ±= b*c whose product no
// conversion rounds first.
func TestNoFusibleFloatArithmetic(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	sites := map[string]bool{}
	for _, goarch := range []string{runtime.GOARCH, "arm64"} {
		ctx := build.Default
		ctx.GOARCH = goarch
		for _, name := range pinnedPackages {
			for _, pos := range fusibleSites(t, fset, imp, ctx, name) {
				sites[pos] = true
			}
		}
	}
	var list []string
	for pos := range sites {
		list = append(list, pos)
	}
	sort.Strings(list)
	for _, pos := range list {
		t.Errorf("%s: a float product is added or subtracted unrounded; pin it with float64(...)", pos)
	}
}

// fusibleSites type-checks package internal/name as ctx selects its
// files and returns the position of every fusible site.
func fusibleSites(t *testing.T, fset *token.FileSet, imp types.Importer, ctx build.Context, name string) []string {
	t.Helper()
	dir := filepath.Join("internal", name)
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, fn := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp, GoVersion: "go1.22"}
	if _, err := conf.Check("repro/"+filepath.ToSlash(dir), fset, files, info); err != nil {
		t.Fatalf("%s (GOARCH=%s): %v", dir, ctx.GOARCH, err)
	}
	// floatProduct reports whether e is a non-constant float product.
	floatProduct := func(e ast.Expr) bool {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || b.Op != token.MUL {
			return false
		}
		tv := info.Types[b]
		basic, ok := tv.Type.Underlying().(*types.Basic)
		return tv.Value == nil && ok && basic.Info()&types.IsFloat != 0
	}
	var sites []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			var fused bool
			switch n := n.(type) {
			case *ast.BinaryExpr:
				fused = (n.Op == token.ADD || n.Op == token.SUB) && (floatProduct(n.X) || floatProduct(n.Y))
			case *ast.AssignStmt:
				fused = (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && floatProduct(n.Rhs[0])
			}
			if fused {
				sites = append(sites, fset.Position(n.Pos()).String())
			}
			return true
		})
	}
	return sites
}
