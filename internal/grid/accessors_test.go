package grid

import (
	"strings"
	"testing"
)

// Tests for the small accessors and stringers the main tests exercise
// only indirectly.

func TestG3Accessors(t *testing.T) {
	g := New3(3, 4, 5, 1)
	if g.NX() != 3 || g.NY() != 4 || g.NZ() != 5 {
		t.Fatal("G3 extents wrong")
	}
	if g.GhostX() != 1 || g.GhostY() != 1 || g.GhostZ() != 1 {
		t.Fatal("G3 ghosts wrong")
	}
	if g.StrideY() != 5+2 || g.StrideX() != (4+2)*(5+2) {
		t.Fatalf("strides: %d, %d", g.StrideX(), g.StrideY())
	}
	if len(g.Data()) != (3+2)*(4+2)*(5+2) {
		t.Fatalf("Data length %d", len(g.Data()))
	}
	g.Add(0, 0, 0, 1.5)
	g.Add(0, 0, 0, 1.5)
	if g.At(0, 0, 0) != 3 {
		t.Fatal("Add")
	}
	if !strings.Contains(g.String(), "3x4x5") {
		t.Fatalf("String = %q", g.String())
	}
	h := New3(3, 4, 6, 0)
	if g.Equal(h) {
		t.Fatal("shape mismatch should not be equal")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MaxAbsDiff shape mismatch should panic")
			}
		}()
		g.MaxAbsDiff(h)
	}()
}

func TestG3MaxAbsDiffValues(t *testing.T) {
	a := New3(2, 2, 2, 0)
	b := New3(2, 2, 2, 0)
	a.Set(1, 1, 1, 4)
	b.Set(1, 1, 1, -3)
	b.Set(0, 0, 0, 1)
	if d := a.MaxAbsDiff(b); d != 7 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestSlabDecomposeBadAxisPanics(t *testing.T) {
	mustPanic(t, func() { SlabDecompose3(4, 4, 4, 2, Axis(9)) })
}

func TestSlabDecomposeOtherAxes(t *testing.T) {
	sx := SlabDecompose3(9, 6, 4, 3, AxisX)
	if sx[1].LocalNX() != 3 || sx[1].LocalNY() != 6 || sx[1].LocalNZ() != 4 {
		t.Fatalf("x slab extents: %+v", sx[1])
	}
	sy := SlabDecompose3(9, 6, 4, 3, AxisY)
	if sy[1].LocalNX() != 9 || sy[1].LocalNY() != 2 || sy[1].LocalNZ() != 4 {
		t.Fatalf("y slab extents: %+v", sy[1])
	}
	sz := SlabDecompose3(9, 6, 4, 2, AxisZ)
	if sz[1].LocalNZ() != 2 || sz[1].LocalNX() != 9 || sz[1].LocalNY() != 6 {
		t.Fatalf("z slab extents: %+v", sz[1])
	}
}
