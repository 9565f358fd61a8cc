package gridio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/mesh"
)

func TestRoundTrip3D(t *testing.T) {
	g := grid.New3(5, 4, 3, 2) // ghosts must NOT be serialised
	rng := rand.New(rand.NewSource(1))
	g.FillFunc(func(i, j, k int) float64 { return rng.NormFloat64() })
	g.Set(-1, 0, 0, 999) // poison a ghost cell
	var buf bytes.Buffer
	if err := Write3(&buf, g); err != nil {
		t.Fatal(err)
	}
	wantLen := 8 + 24 + 8*5*4*3
	if buf.Len() != wantLen {
		t.Fatalf("file size %d, want %d", buf.Len(), wantLen)
	}
	h, err := Read3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatal("3-D round trip lost data")
	}
	if h.GhostX() != 0 {
		t.Fatal("read grid should have no ghosts")
	}
}

func TestSpecialValuesSurvive(t *testing.T) {
	g := grid.New3(1, 1, 4, 0)
	g.Set(0, 0, 0, math.Inf(1))
	g.Set(0, 0, 1, math.Inf(-1))
	g.Set(0, 0, 2, math.NaN())
	g.Set(0, 0, 3, math.Copysign(0, -1))
	var buf bytes.Buffer
	if err := Write3(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(h.At(0, 0, 0), 1) || !math.IsInf(h.At(0, 0, 1), -1) || !math.IsNaN(h.At(0, 0, 2)) {
		t.Fatal("special values corrupted")
	}
	if math.Float64bits(h.At(0, 0, 3)) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("negative zero corrupted")
	}
}

// header returns a grid file header with the given dimensions.
func header(t testing.TB, nx, ny, nz int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHeader(&buf, nx, ny, nz); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDimensionMismatchErrors(t *testing.T) {
	// Every dimension must be positive: a zero or negative one is
	// rejected before any payload is read.
	for _, d := range [][3]int{{3, 3, 0}, {3, 0, 0}, {0, 3, 3}, {3, -1, 3}} {
		raw := append(header(t, d[0], d[1], d[2]), make([]byte, 8*9)...)
		if _, err := Read3(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "invalid dimensions") {
			t.Fatalf("dims %v: %v", d, err)
		}
	}
}

func TestHeaderCellCountOverflow(t *testing.T) {
	// 2^28 x 2^28 x 256 cells is 2^64: each dimension passes the 2^28
	// bound, and a multiplied-out cell count wraps to 0.
	raw := header(t, 1<<28, 1<<28, 256)
	if _, err := Read3(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("overflowing header: %v", err)
	}
}

func TestCorruptInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		append([]byte("BADMAGIC"), make([]byte, 24)...),
	}
	for i, c := range cases {
		if _, err := Read3(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: corrupt input accepted", i)
		}
	}
	// Truncated payload.
	g := grid.New3(4, 4, 4, 0)
	var buf bytes.Buffer
	if err := Write3(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := Read3(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Absurd dimensions.
	var evil bytes.Buffer
	if err := writeHeader(&evil, 1<<30, 1<<30, 1<<30); err != nil {
		t.Fatal(err)
	}
	if _, err := Read3(&evil); err == nil {
		t.Fatal("absurd dimensions accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "field.grd")
	g := grid.New3(3, 3, 3, 0)
	g.FillFunc(func(i, j, k int) float64 { return float64(i*9 + j*3 + k) })
	if err := SaveFile3(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := LoadFile3(path)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadFile3(filepath.Join(t.TempDir(), "missing.grd")); err == nil {
		t.Fatal("missing file should error")
	}
}

// Property: any 3-D grid round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64, d1, d2, d3 uint8) bool {
		nx, ny, nz := int(d1)%5+1, int(d2)%5+1, int(d3)%5+1
		rng := rand.New(rand.NewSource(seed))
		g := grid.New3(nx, ny, nz, 0)
		g.FillFunc(func(i, j, k int) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)) })
		var buf bytes.Buffer
		if err := Write3(&buf, g); err != nil {
			return false
		}
		h, err := Read3(&buf)
		if err != nil {
			return false
		}
		return h.Equal(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHostIOPattern exercises the archetype's full file-I/O pattern:
// the host reads a grid from a file and scatters it; the grid processes
// compute; the host gathers and writes the result.
func TestHostIOPattern(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.grd")
	outPath := filepath.Join(dir, "out.grd")
	const nx, ny, nz, p = 8, 4, 4, 4

	in := grid.New3(nx, ny, nz, 0)
	in.FillFunc(func(i, j, k int) float64 { return float64(i + j + k) })
	if err := SaveFile3(inPath, in); err != nil {
		t.Fatal(err)
	}

	topo := mesh.NewTopo2D(nx, ny, p, 1)
	_, err := mesh.Run(p, mesh.Sim, mesh.DefaultOptions(), func(c *mesh.Comm) error {
		var global *grid.G3
		if c.Rank() == 0 {
			var err error
			global, err = LoadFile3(inPath)
			if err != nil {
				return err
			}
		}
		local := c.Scatter3DBlocks(global, topo, nz, 0, 0, 0)
		for i := 0; i < local.NX(); i++ {
			for j := 0; j < local.NY(); j++ {
				pcl := local.Pencil(i, j)
				for k := range pcl {
					pcl[k] *= 2
				}
			}
		}
		out := c.Gather3DBlocks(local, topo, 0)
		if c.Rank() == 0 {
			return SaveFile3(outPath, out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	out, err := LoadFile3(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				if out.At(i, j, k) != 2*in.At(i, j, k) {
					t.Fatalf("host I/O pattern corrupted (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// failAfter is an io.Writer that errors after n bytes, to exercise the
// write-error paths.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriteInjected
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriteInjected
	}
	f.n -= len(p)
	return len(p), nil
}

var errWriteInjected = bytes.ErrTooLarge // any sentinel error works here

func TestWriteErrorsPropagate(t *testing.T) {
	g3 := grid.New3(4, 4, 4, 0)
	for _, n := range []int{0, 10, 40} {
		if err := Write3(&failAfter{n: n}, g3); err == nil {
			t.Fatalf("Write3 with %d-byte budget should fail", n)
		}
	}
}

func TestSaveFileToBadPath(t *testing.T) {
	g := grid.New3(2, 2, 2, 0)
	if err := SaveFile3("/nonexistent-dir/x.grd", g); err == nil {
		t.Fatal("unwritable path should error")
	}
}

func TestReadDimsMessages(t *testing.T) {
	// A rejected header names the dimensions it held.
	for _, d := range [][3]int{{3, 0, 0}, {1 << 20, 1 << 9, 1}} {
		_, err := Read3(bytes.NewReader(header(t, d[0], d[1], d[2])))
		if want := fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("dims %v: %v, want the message to name %s", d, err, want)
		}
	}
}
