package archetype

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers keeps the internal API to what the
// program runs.  It fails on each exported top-level declaration in a
// non-test file under internal/ whose identifier appears in no non-test
// .go file of the repository (benchmark/ included) except at its own
// declaration.  The check is by name: a method counts as used when any
// method or interface method of that name is referred to, so a method
// that satisfies an interface of the repository passes.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]*ast.Ident{} // package.Name, package relative to internal/
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		own := map[*ast.Ident]bool{}
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			for _, id := range exportedDecls(f) {
				own[id] = true
				declared[pkg+"."+id.Name] = id
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, id := range declared {
		if !used[id.Name] && testOracles[key] == "" {
			unused = append(unused, fset.Position(id.Pos()).String()+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file refers to it; delete it, or list it in testOracles with the tests it serves", u)
	}
	for key := range testOracles {
		if id := declared[key]; id == nil {
			t.Errorf("testOracles lists %s, which no non-test file under internal/ declares", key)
		} else if used[id.Name] {
			t.Errorf("testOracles lists %s, which a non-test file refers to; delete its entry", key)
		}
	}
}

// exportedDecls returns the name of each exported top-level function,
// method, type, constant and variable of f, except the methods that the
// standard library calls through an interface.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && !(d.Recv != nil && stdlibMethods[d.Name.Name]) {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						ids = append(ids, s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							ids = append(ids, n)
						}
					}
				}
			}
		}
	}
	return ids
}

// stdlibMethods are method names the standard library calls through an
// interface (errors.Is and errors.As call Unwrap, fmt calls String), so
// no file of the repository needs to name them.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// testOracles are the exported names of internal/ that only tests call
// and that stay, keyed package.Name, each with the reason it stays: a
// shared oracle or fault tool that the tests of other packages use, or
// an experiment's variant that its own tests measure.
var testOracles = map[string]string{
	"channel.Received":        "mesh tests hold the received count to the sent count on every link",
	"fault.DelaySends":        "channel, mesh and cluster tests perturb delivery times with it",
	"fault.FlipByte":          "fdtd recovery tests corrupt checkpoints with it",
	"fsum.Kahan":              "E2's compensated sum; the root package benchmarks it against the others",
	"fsum.SortedByMagnitude":  "E2's magnitude-ordered sum, measured by the fsum tests",
	"fsum.TreeCombine":        "E2's recursive-doubling combine order, measured by the fsum tests",
	"grid.Fill":               "mesh tests fill local sections with it",
	"grid.MaxAbsDiff":         "mesh and wave2d tests compare grids with it",
	"grid.ToGlobal":           "mesh tests map slab-local indices to global ones with it",
	"machine.DES":             "the discrete-event check of the analytic model (ROADMAP item 8), run by fdtd, machine and root tests",
	"obs.LintProm":            "serve and cluster tests lint their /metrics exposition with it",
	"obs.PromSchema":          "serve and cluster metrics goldens are written in its schema",
	"serve.BitwiseEqual":      "serve, cluster and archcoord tests compare job results bit for bit with it",
	"serve.JobResponse":       "the POST /v1/jobs body, which the cluster fuzz test encodes",
	"ssp.Flatten":             "root tests reassemble a distributed stencil result with it",
	"ssp.RunSequentialDirect": "the sequential oracle of the stencil refinement, run by root and ssp tests",
	"ssp.SpacesEqual":         "explore's Theorem 1 tests compare final address spaces with it",
	"trace.CheckCausality":    "sched tests check every recorded trace with it",
}
