package grid

import (
	"testing"
	"testing/quick"
)

func TestG3Addressing(t *testing.T) {
	g := New3(3, 4, 5, 1)
	g.FillFunc(func(i, j, k int) float64 { return float64(100*i + 10*j + k) })
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				if g.At(i, j, k) != float64(100*i+10*j+k) {
					t.Fatalf("At(%d,%d,%d) = %v", i, j, k, g.At(i, j, k))
				}
			}
		}
	}
	g.Set(-1, 0, 0, 7)
	g.Set(3, 3, 4, 9)
	if g.At(-1, 0, 0) != 7 || g.At(3, 3, 4) != 9 {
		t.Fatal("3-D ghost addressing broken")
	}
}

func TestG3PerAxisGhosts(t *testing.T) {
	g := New3G(2, 3, 4, 0, 0, 2)
	if g.GhostX() != 0 || g.GhostY() != 0 || g.GhostZ() != 2 {
		t.Fatal("per-axis ghosts not stored")
	}
	g.Set(0, 0, -2, 1)
	g.Set(1, 2, 5, 2)
	if g.At(0, 0, -2) != 1 || g.At(1, 2, 5) != 2 {
		t.Fatal("z ghost addressing broken")
	}
}

func TestG3PencilStride1(t *testing.T) {
	g := New3(2, 2, 6, 1)
	p := g.Pencil(1, 1)
	if len(p) != 6 {
		t.Fatalf("pencil length %d", len(p))
	}
	p[3] = 11
	if g.At(1, 1, 3) != 11 {
		t.Fatal("Pencil does not alias store")
	}
}

func TestG3PlaneCopyAndPack(t *testing.T) {
	a := New3(4, 3, 2, 1)
	a.FillFunc(func(i, j, k int) float64 { return float64(i*100 + j*10 + k) })
	// Pack/unpack round trip.
	buf := a.packPlaneX(2, nil)
	if len(buf) != 6 {
		t.Fatalf("pack length %d", len(buf))
	}
	c := New3(4, 3, 2, 1)
	c.unpackPlaneX(4, buf) // into upper ghost plane
	for j := 0; j < 3; j++ {
		for k := 0; k < 2; k++ {
			if c.At(4, j, k) != a.At(2, j, k) {
				t.Fatalf("pack/unpack mismatch at (%d,%d)", j, k)
			}
		}
	}
}

func TestG3CloneEqual(t *testing.T) {
	g := New3(3, 3, 3, 1)
	g.FillFunc(func(i, j, k int) float64 { return float64(i*j*k) + 0.5 })
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(2, 2, 2, 0)
	if g.Equal(c) {
		t.Fatal("clone aliases original")
	}
}

func TestExtentPanics(t *testing.T) {
	mustPanic(t, func() { New3(0, 1, 1, 0) })
	mustPanic(t, func() { New3G(3, 1, 1, -1, 0, 0) })
	mustPanic(t, func() { New3(2, 0, 1, 0) })
	mustPanic(t, func() { New3(1, 1, 0, 0) })
}

func TestRangeOps(t *testing.T) {
	r := Range{2, 7}
	if r.Len() != 5 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(2) || r.Contains(7) || r.Contains(1) {
		t.Fatal("Contains wrong")
	}
	if r.String() != "[2,7)" {
		t.Fatalf("String = %q", r.String())
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// Property: Decompose covers [0, n) exactly, blocks are contiguous,
// balanced within one point, and Owner inverts the mapping.
func TestDecomposeProperties(t *testing.T) {
	prop := func(n16, p8 uint8) bool {
		n := int(n16)%200 + 1
		p := int(p8)%16 + 1
		if n < p {
			n = p
		}
		rs := Decompose(n, p)
		if len(rs) != p {
			return false
		}
		lo := 0
		minLen, maxLen := n, 0
		for _, r := range rs {
			if r.Lo != lo || r.Len() <= 0 {
				return false
			}
			lo = r.Hi
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
		}
		if lo != n || maxLen-minLen > 1 {
			return false
		}
		for i := 0; i < n; i++ {
			o := Owner(rs, i)
			if o < 0 || !rs[o].Contains(i) {
				return false
			}
		}
		return Owner(rs, -1) == -1 && Owner(rs, n) == -1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposePanics(t *testing.T) {
	mustPanic(t, func() { Decompose(5, 0) })
	mustPanic(t, func() { Decompose(3, 4) })
}

func TestSlabDecompose(t *testing.T) {
	slabs := SlabDecompose3(10, 20, 33, 4, AxisZ)
	if len(slabs) != 4 {
		t.Fatalf("slabs = %d", len(slabs))
	}
	total := 0
	for i, s := range slabs {
		if s.Rank != i || s.World != 4 || s.Axis != AxisZ {
			t.Fatalf("slab meta wrong: %+v", s)
		}
		if s.LocalNX() != 10 || s.LocalNY() != 20 {
			t.Fatalf("non-split extents wrong: %+v", s)
		}
		total += s.LocalNZ()
	}
	if total != 33 {
		t.Fatalf("z total = %d", total)
	}
}

func TestSlabNewLocal3GhostPlacement(t *testing.T) {
	for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
		slabs := SlabDecompose3(8, 8, 8, 2, axis)
		g := slabs[0].NewLocal3(1)
		gx, gy, gz := g.GhostX(), g.GhostY(), g.GhostZ()
		want := [3]int{}
		want[int(axis)] = 1
		if gx != want[0] || gy != want[1] || gz != want[2] {
			t.Fatalf("axis %v: ghosts = (%d,%d,%d)", axis, gx, gy, gz)
		}
	}
}

func TestAxisString(t *testing.T) {
	if AxisX.String() != "x" || AxisY.String() != "y" || AxisZ.String() != "z" {
		t.Fatal("axis names")
	}
	if Axis(9).String() != "Axis(9)" {
		t.Fatal("unknown axis name")
	}
}
