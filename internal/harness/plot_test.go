package harness

import (
	"strings"
	"testing"
)

func TestPlotRenderBasics(t *testing.T) {
	p := Plot{
		Title:  "test plot",
		XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "linear", Marker: 'l', X: []float64{1, 2, 4, 8}, Y: []float64{1, 2, 4, 8}},
			{Name: "flat", Marker: 'f', X: []float64{1, 2, 4, 8}, Y: []float64{3, 3, 3, 3}},
		},
	}
	out := p.Render()
	for _, want := range []string{"test plot", "l = linear", "f = flat", "x: x   y: y"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "l") < 4 {
		t.Fatalf("markers not drawn:\n%s", out)
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	empty := Plot{Title: "empty"}
	if !strings.Contains(empty.Render(), "no data") {
		t.Fatal("empty plot should say so")
	}
	// A single point (degenerate ranges) must not panic or divide by 0.
	single := Plot{Series: []Series{{Name: "pt", Marker: '*', X: []float64{3}, Y: []float64{5}}}}
	if !strings.Contains(single.Render(), "*") {
		t.Fatal("single point should render")
	}
}

func TestFigurePlots(t *testing.T) {
	tab := &Table{
		Title: "fig",
		Rows: []Row{
			{Label: "Sequential", P: 1, Seconds: 8, Speedup: 1},
			{Label: "P=2", P: 2, Seconds: 4.4, Speedup: 1.8},
			{Label: "P=4", P: 4, Seconds: 2.5, Speedup: 3.2},
			{Label: "P=8", P: 8, Seconds: 1.6, Speedup: 5.0},
		},
	}
	out := FigurePlots(tab)
	for _, want := range []string{"execution time", "speedup", "a = actual", "i = ideal", "p = perfect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Degenerate table falls back to the plain format.
	small := &Table{Title: "tiny", Rows: []Row{{Label: "Sequential", P: 1, Seconds: 1, Speedup: 1}}}
	if !strings.Contains(FigurePlots(small), "tiny") {
		t.Fatal("fallback missing")
	}
}
