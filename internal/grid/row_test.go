package grid

import "testing"

// TestG3RowAliasesStorage checks that Row is a writable view of the
// same storage At/Set address, over interior and ghost rows.
func TestG3RowAliasesStorage(t *testing.T) {
	g := New3(3, 4, 5, 1)
	g.FillFunc(func(i, j, k int) float64 {
		return float64(100*i + 10*j + k)
	})
	for i := 0; i < g.NX(); i++ {
		for j := 0; j < g.NY(); j++ {
			row := g.Row(i, j)
			if len(row) != g.NZ() {
				t.Fatalf("Row(%d,%d) length %d, want %d", i, j, len(row), g.NZ())
			}
			for k := range row {
				if row[k] != g.At(i, j, k) {
					t.Fatalf("Row(%d,%d)[%d] = %v, At = %v", i, j, k, row[k], g.At(i, j, k))
				}
			}
			row[0] = -1
			if g.At(i, j, 0) != -1 {
				t.Fatalf("Row(%d,%d) write did not land in storage", i, j)
			}
		}
	}
	// Ghost rows: the offset-neighbour views kernels take.  Index (and
	// therefore Set/Row) accepts ghost coordinates within the ghost
	// width.
	g.Set(-1, 0, 2, 7)
	if got := g.Row(-1, 0)[2]; got != 7 {
		t.Fatalf("ghost Row(-1,0)[2] = %v, want 7", got)
	}
	if got := g.Row(3, 2); len(got) != 5 {
		t.Fatalf("upper ghost row length %d", len(got))
	}
}

// TestG3RowCapacityClamped checks the safety property that motivates
// Row over Pencil: re-slicing past the row length panics instead of
// exposing the neighbouring row's storage.
func TestG3RowCapacityClamped(t *testing.T) {
	g := New3(3, 4, 5, 1)
	row := g.Row(1, 1)
	if cap(row) != len(row) {
		t.Fatalf("Row capacity %d not clamped to length %d", cap(row), len(row))
	}
	mustPanic(t, func() { _ = g.Row(1, 1)[:6] })
	// Pencil, by contrast, deliberately exposes trailing capacity.
	if cap(g.Pencil(1, 1)) <= len(g.Pencil(1, 1)) {
		t.Fatal("Pencil unexpectedly clamped")
	}
}
