package grid

import (
	"testing"
	"testing/quick"
)

func TestPlaneSizeAndAxisAccessors(t *testing.T) {
	g := New3G(3, 4, 5, 1, 2, 0)
	if g.PlaneSize(AxisX) != 20 || g.PlaneSize(AxisY) != 15 || g.PlaneSize(AxisZ) != 12 {
		t.Fatalf("plane sizes: %d %d %d",
			g.PlaneSize(AxisX), g.PlaneSize(AxisY), g.PlaneSize(AxisZ))
	}
	if g.AxisN(AxisX) != 3 || g.AxisN(AxisY) != 4 || g.AxisN(AxisZ) != 5 {
		t.Fatal("AxisN wrong")
	}
	if g.AxisGhost(AxisX) != 1 || g.AxisGhost(AxisY) != 2 || g.AxisGhost(AxisZ) != 0 {
		t.Fatal("AxisGhost wrong")
	}
}

func TestPackUnpackPlaneAllAxes(t *testing.T) {
	for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
		src := New3(4, 3, 5, 1)
		dst := New3(4, 3, 5, 1)
		src.FillFunc(func(i, j, k int) float64 { return float64(100*i + 10*j + k) })
		n := src.AxisN(axis)
		// Copy interior plane 1 of src into the upper ghost plane of dst.
		buf := src.PackPlane(axis, 1, nil)
		if len(buf) != src.PlaneSize(axis) {
			t.Fatalf("axis %v: buffer length %d", axis, len(buf))
		}
		dst.UnpackPlane(axis, n, buf)
		// Verify every point.
		checkAt := func(i, j, k int) {
			var gi, gj, gk int
			switch axis {
			case AxisX:
				gi, gj, gk = n, j, k
			case AxisY:
				gi, gj, gk = i, n, k
			case AxisZ:
				gi, gj, gk = i, j, n
			}
			var si, sj, sk int
			switch axis {
			case AxisX:
				si, sj, sk = 1, j, k
			case AxisY:
				si, sj, sk = i, 1, k
			case AxisZ:
				si, sj, sk = i, j, 1
			}
			if dst.At(gi, gj, gk) != src.At(si, sj, sk) {
				t.Fatalf("axis %v: mismatch at (%d,%d,%d)", axis, i, j, k)
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 5; k++ {
					switch axis {
					case AxisX:
						if i == 0 {
							checkAt(i, j, k)
						}
					case AxisY:
						if j == 0 {
							checkAt(i, j, k)
						}
					case AxisZ:
						if k == 0 {
							checkAt(i, j, k)
						}
					}
				}
			}
		}
	}
}

func TestPackPlaneMatchesPackPlaneX(t *testing.T) {
	g := New3(3, 4, 5, 1)
	g.FillFunc(func(i, j, k int) float64 { return float64(i) + float64(j)*0.1 + float64(k)*0.01 })
	a := g.PackPlane(AxisX, 2, nil)
	b := g.packPlaneX(2, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PackPlane(AxisX) must agree with packPlaneX")
		}
	}
}

// Property: pack/unpack along any axis is an exact round trip for any
// interior plane index.
func TestPlaneRoundTripProperty(t *testing.T) {
	prop := func(axis8, idx8 uint8, seed int64) bool {
		axis := Axis(int(axis8) % 3)
		g := New3(3, 4, 5, 1)
		v := float64(seed%1000) / 7
		g.FillFunc(func(i, j, k int) float64 { return v + float64(i*20+j*5+k) })
		idx := int(idx8) % g.AxisN(axis)
		buf := g.PackPlane(axis, idx, nil)
		h := New3(3, 4, 5, 1)
		h.UnpackPlane(axis, idx, buf)
		buf2 := h.PackPlane(axis, idx, nil)
		for i := range buf {
			if buf[i] != buf2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanePanics(t *testing.T) {
	g := New3(2, 2, 2, 0)
	for _, f := range []func(){
		func() { g.PlaneSize(Axis(9)) },
		func() { g.AxisN(Axis(9)) },
		func() { g.AxisGhost(Axis(9)) },
		func() { g.PackPlane(AxisY, 0, make([]float64, 3)) },
		func() { g.UnpackPlane(AxisZ, 0, make([]float64, 3)) },
	} {
		mustPanic(t, f)
	}
}
