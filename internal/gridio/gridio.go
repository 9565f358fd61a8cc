// Package gridio reads and writes grids in a simple binary format, the
// concrete "file input/output operations" of the mesh archetype.  In
// the host-process I/O pattern, the host reads a file with this package
// and scatters the grid to the grid processes' blocks
// (mesh.Scatter3DBlocks); a write gathers first (mesh.Gather3DBlocks)
// and then serialises here.
//
// Format (little-endian):
//
//	magic   [8]byte  "MESHGRD1"
//	dims    3 x int64 (nx, ny, nz)
//	payload nx*ny*nz float64 values in storage order (interior only —
//	        ghost cells are runtime artifacts and never serialised)
package gridio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/grid"
)

var magic = [8]byte{'M', 'E', 'S', 'H', 'G', 'R', 'D', '1'}

const headerLen = 32 // magic + 3 x int64 dims

func writeHeader(w io.Writer, nx, ny, nz int) error {
	var b [headerLen]byte
	copy(b[:8], magic[:])
	binary.LittleEndian.PutUint64(b[8:], uint64(nx))
	binary.LittleEndian.PutUint64(b[16:], uint64(ny))
	binary.LittleEndian.PutUint64(b[24:], uint64(nz))
	_, err := w.Write(b[:])
	return err
}

func readHeader(r io.Reader) (nx, ny, nz int, err error) {
	var b [headerLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("gridio: reading header: %w", err)
	}
	if [8]byte(b[:8]) != magic {
		return 0, 0, 0, fmt.Errorf("gridio: bad magic %q", b[:8])
	}
	hx := int64(binary.LittleEndian.Uint64(b[8:]))
	hy := int64(binary.LittleEndian.Uint64(b[16:]))
	hz := int64(binary.LittleEndian.Uint64(b[24:]))
	if hx <= 0 || hy <= 0 || hz <= 0 {
		return 0, 0, 0, fmt.Errorf("gridio: invalid dimensions %dx%dx%d", hx, hy, hz)
	}
	// Refuse absurd allocations from corrupt files.  Each bound divides
	// rather than multiplies, so the cell count cannot overflow.
	const max = 1 << 28
	if hx > max || hy > max/hx || hz > max/(hx*hy) {
		return 0, 0, 0, fmt.Errorf("gridio: dimensions %dx%dx%d too large", hx, hy, hz)
	}
	return int(hx), int(hy), int(hz), nil
}

// scratch is a reusable encode/decode buffer: each Write*/Read* call
// allocates it once and every per-pencil value transfer reuses it, so
// serialising a grid costs O(1) allocations instead of one per pencil.
type scratch []byte

func (s *scratch) grow(n int) []byte {
	if cap(*s) < n {
		*s = make([]byte, n)
	}
	return (*s)[:n]
}

func writeValues(w io.Writer, vals []float64, s *scratch) error {
	buf := s.grow(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readValues(r io.Reader, vals []float64, s *scratch) error {
	buf := s.grow(8 * len(vals))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("gridio: reading payload: %w", err)
	}
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// Write3 serialises a 3-D grid's interior to w.
func Write3(w io.Writer, g *grid.G3) error {
	if err := writeHeader(w, g.NX(), g.NY(), g.NZ()); err != nil {
		return err
	}
	var s scratch
	for i := 0; i < g.NX(); i++ {
		for j := 0; j < g.NY(); j++ {
			if err := writeValues(w, g.Pencil(i, j), &s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read3 deserialises a 3-D grid (ghost width 0) from r.  When r knows
// how many bytes it has left (a bytes.Reader, for one), a payload
// shorter than the header claims fails before the grid is allocated.
func Read3(r io.Reader) (*grid.G3, error) {
	nx, ny, nz, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if l, ok := r.(interface{ Len() int }); ok && l.Len()/8 < nx*ny*nz {
		return nil, fmt.Errorf("gridio: reading payload: %w", io.ErrUnexpectedEOF)
	}
	g := grid.New3(nx, ny, nz, 0)
	var s scratch
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if err := readValues(r, g.Pencil(i, j), &s); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// SaveFile3 writes a 3-D grid to path, buffered.
func SaveFile3(path string, g *grid.G3) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := Write3(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile3 reads a 3-D grid from path.
func LoadFile3(path string) (*grid.G3, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read3(bufio.NewReader(f))
}
