package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/fdtd"
	"repro/internal/fsum"
	"repro/internal/mesh"
)

// FarFieldAnalysis quantifies the mechanism behind the far-field
// divergence (the paper's footnote 2: the summands "ranged over many
// orders of magnitude") and demonstrates the fix.
type FarFieldAnalysis struct {
	// DynamicRangeDecades is the spread of far-field contribution
	// magnitudes in the actual FDTD run (log10 max/min over non-zero
	// potentials).
	DynamicRangeDecades float64
	// NaiveMaxRelDev is the SSP-vs-sequential deviation with the
	// paper's naive reordered summation.
	NaiveMaxRelDev float64
	// FixedMaxRelDev is the deviation of the compensated far field
	// from the high-accuracy sequential reference.
	FixedMaxRelDev float64
	// SyntheticWide and SyntheticNarrow show the generic effect on
	// synthetic data: block-reordering error for wide- and narrow-
	// dynamic-range summands.
	SyntheticWide, SyntheticNarrow float64
}

// String renders the analysis.
func (a *FarFieldAnalysis) String() string {
	var b strings.Builder
	b.WriteString("=== Far-field divergence analysis (E2) ===\n")
	fmt.Fprintf(&b, "far-field potential dynamic range: %.1f decades\n", a.DynamicRangeDecades)
	fmt.Fprintf(&b, "naive reordered sum, max relative deviation:       %.3g\n", a.NaiveMaxRelDev)
	fmt.Fprintf(&b, "compensated sum vs accurate reference, deviation:  %.3g\n", a.FixedMaxRelDev)
	fmt.Fprintf(&b, "synthetic 16-decade data, block-reorder deviation: %.3g\n", a.SyntheticWide)
	fmt.Fprintf(&b, "synthetic  1-decade data, block-reorder deviation: %.3g\n", a.SyntheticNarrow)
	return b.String()
}

// RunFarFieldAnalysis performs the E2 analysis on the given Version C
// spec.
func RunFarFieldAnalysis(spec fdtd.Spec, p int) (*FarFieldAnalysis, error) {
	if !spec.IsVersionC() {
		return nil, fmt.Errorf("harness: far-field analysis requires a Version C spec")
	}
	seq, err := fdtd.RunSequential(spec)
	if err != nil {
		return nil, err
	}
	naive, err := fdtd.RunArchetype(spec, p, mesh.Sim, fdtd.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ref, err := fdtd.RunSequentialOpts(spec, true)
	if err != nil {
		return nil, err
	}
	fixedOpt := fdtd.DefaultOptions()
	fixedOpt.FarFieldCompensated = true
	fixed, err := fdtd.RunArchetype(spec, p, mesh.Sim, fixedOpt)
	if err != nil {
		return nil, err
	}

	a := &FarFieldAnalysis{
		NaiveMaxRelDev: seq.FarFieldMaxRelDiff(naive),
		FixedMaxRelDev: ref.FarFieldMaxRelDiff(fixed),
	}
	// Dynamic range of the potentials themselves.
	minMag, maxMag := 0.0, 0.0
	first := true
	for _, series := range [][]float64{seq.FarA, seq.FarF} {
		for _, v := range series {
			m := v
			if m < 0 {
				m = -m
			}
			if m == 0 {
				continue
			}
			if first || m < minMag {
				minMag = m
			}
			if first || m > maxMag {
				maxMag = m
			}
			first = false
		}
	}
	if !first && minMag > 0 {
		a.DynamicRangeDecades = math.Log10(maxMag / minMag)
	}
	rng := rand.New(rand.NewSource(42))
	wide := fsum.Sensitivity(fsum.WideRange(20000, 16, rng), []int{2, 4, 8}, 5, rng)
	narrow := fsum.Sensitivity(fsum.Narrow(20000, rng), []int{2, 4, 8}, 5, rng)
	a.SyntheticWide = wide.MaxRelDev
	a.SyntheticNarrow = narrow.MaxRelDev
	return a, nil
}
