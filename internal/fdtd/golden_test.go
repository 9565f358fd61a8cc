package fdtd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// identityGoldenFile holds the committed digests of TestIdentityGolden,
// one case per line: name, Result.FieldHash, FarA hash, FarF hash, Work
// bits.
const identityGoldenFile = "testdata/identity.golden"

// seriesDigest hashes the bit patterns of a far-field series, length
// included.
func seriesDigest(v []float64) uint64 {
	h := fnv.New64a()
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	h.Write(b)
	return h.Sum64()
}

// identityLine renders one case's digests as its golden-file line.
func identityLine(name string, r *Result) string {
	return fmt.Sprintf("%s %016x %016x %016x %016x", name,
		r.FieldHash(), seriesDigest(r.FarA), seriesDigest(r.FarF), math.Float64bits(r.Work))
}

// identityCase is one run TestIdentityGolden pins.
type identityCase struct {
	name string
	run  func() (*Result, error)
}

// identityCases are the pinned runs: the 24x16x16 job grid at P = 1,
// P = 2 and on 2x2 blocks with the naive and the compensated far
// field, SpecSmall with the Mur boundary, a few steps of Table 1, and a
// far-field direction with negative components.
func identityCases() []identityCase {
	var cases []identityCase
	add := func(name string, run func() (*Result, error)) {
		cases = append(cases, identityCase{name, run})
	}
	job := haloGrid(64)
	for _, comp := range []bool{false, true} {
		mode := "naive"
		if comp {
			mode = "compensated"
		}
		opt := DefaultOptions()
		opt.FarFieldCompensated = comp
		add("job/P=1/"+mode, func() (*Result, error) { return RunSequentialOpts(job, comp) })
		add("job/P=2/"+mode, func() (*Result, error) { return RunArchetype(job, 2, mesh.Sim, opt) })
		add("job/2x2/"+mode, func() (*Result, error) { return RunArchetype2D(job, 2, 2, mesh.Sim, opt) })
	}
	mur := SpecSmall()
	mur.Boundary = BoundaryMur1
	add("small-mur/P=1", func() (*Result, error) { return RunSequential(mur) })
	add("small-mur/P=2", func() (*Result, error) { return RunArchetype(mur, 2, mesh.Sim, DefaultOptions()) })
	table1 := SpecTable1()
	table1.Steps = 24
	add("table1/P=1", func() (*Result, error) { return RunSequential(table1) })
	add("table1/P=3", func() (*Result, error) { return RunArchetype(table1, 3, mesh.Sim, DefaultOptions()) })
	skew := SpecSmall()
	skew.FarField = &FarFieldSpec{Offset: 2, Dir: [3]float64{-0.7, 0.4, -1.3}, Pol: [3]float64{0.2, -1, 0.5}}
	add("small-negdir/P=1", func() (*Result, error) { return RunSequential(skew) })
	add("small-negdir/2x2", func() (*Result, error) { return RunArchetype2D(skew, 2, 2, mesh.Sim, DefaultOptions()) })
	return cases
}

// readIdentityGolden returns the committed line of every case by name.
func readIdentityGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(identityGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestIdentityGolden holds every pinned run, once per row body, to
// digests committed in testdata: the near field, both far-field series
// and the work count, bit for bit.  The identity tests elsewhere
// compare runs with one another, so a kernel change that moves every
// run the same way passes them; it fails here.  The goldens are
// regenerated only by a change that means to alter the arithmetic: on
// a mismatch the test logs every case's current line in the file's
// format.
func TestIdentityGolden(t *testing.T) {
	want := readIdentityGolden(t)
	cases := identityCases()
	forEachRowBody(t, func(t *testing.T) {
		var got []string
		failed := false
		for _, c := range cases {
			r, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			line := identityLine(c.name, r)
			got = append(got, line)
			if w, ok := want[c.name]; !ok {
				t.Errorf("%s: no golden line", c.name)
				failed = true
			} else if line != w {
				t.Errorf("%s:\n got %s\nwant %s", c.name, line, w)
				failed = true
			}
		}
		if len(want) != len(cases) {
			t.Errorf("golden file has %d cases, the test runs %d", len(want), len(cases))
			failed = true
		}
		if failed {
			t.Logf("current lines:\n%s", strings.Join(got, "\n"))
		}
	})
}
