package fdtd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/mesh"
)

func mustSeq(t *testing.T, spec Spec) *Result {
	t.Helper()
	res, err := RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustArch(t *testing.T, spec Spec, p int, mode mesh.Mode, opt Options) *Result {
	t.Helper()
	res, err := RunArchetype(spec, p, mode, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSpecValidation(t *testing.T) {
	good := SpecSmall()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.NX = 2 },
		func(s *Spec) { s.Steps = 0 },
		func(s *Spec) { s.DT = 0.9 },
		func(s *Spec) { s.DT = 0 },
		func(s *Spec) { s.Source.I = -1 },
		func(s *Spec) { s.Source.Width = 0 },
		func(s *Spec) { s.Probe = [3]int{99, 0, 0} },
		func(s *Spec) { s.FarField.Offset = 0 },
		func(s *Spec) { s.FarField.Offset = 6 },
		func(s *Spec) { s.FarField.Dir = [3]float64{} },
		func(s *Spec) { s.NX, s.NY, s.NZ = 1<<21, 1<<21, 1<<21 }, // cell count overflows int64
		func(s *Spec) { s.NX, s.NY, s.NZ = 257, 256, 256 },
		func(s *Spec) { s.DT = 1e-12 },                 // far-field delay span
		func(s *Spec) { s.Steps = MaxFarFieldSamples }, // far-field length
	}
	for i, mutate := range cases {
		s := SpecSmall()
		ffCopy := *s.FarField
		s.FarField = &ffCopy
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	largest := SpecSmallA()
	largest.NX, largest.NY, largest.NZ = 256, 256, 256
	largest.Steps = 1 << 30
	if err := largest.Validate(); err != nil {
		t.Fatalf("a %d-cell Version A grid is within bounds: %v", MaxCells, err)
	}
}

func TestPresetsValid(t *testing.T) {
	for _, s := range []Spec{SpecTable1(), SpecFigure2(), SpecSmall(), SpecSmallA()} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !SpecTable1().IsVersionC() || SpecFigure2().IsVersionC() {
		t.Fatal("Table 1 is Version C, Figure 2 is Version A")
	}
}

func TestSequentialPhysicsSanity(t *testing.T) {
	res := mustSeq(t, SpecSmall())
	// The pulse must have reached the probe.
	maxProbe := 0.0
	for _, v := range res.Probe {
		if a := math.Abs(v); a > maxProbe {
			maxProbe = a
		}
	}
	if maxProbe == 0 {
		t.Fatal("probe never saw the pulse")
	}
	// Lossy materials and a bounded source keep the fields finite.
	if m := maxFieldMagnitude(res); m == 0 || math.IsNaN(m) || m > 1e3 {
		t.Fatalf("fields unstable or empty: max=%v", m)
	}
	if len(res.Probe) != res.Spec.Steps {
		t.Fatalf("probe length %d", len(res.Probe))
	}
	if res.FarA == nil || res.FarF == nil {
		t.Fatal("Version C must produce far-field potentials")
	}
	if res.Work <= 0 {
		t.Fatal("work not counted")
	}
}

// maxFieldMagnitude returns the largest |value| across the six final
// field grids of r.
func maxFieldMagnitude(r *Result) float64 {
	max := 0.0
	for _, g := range []*grid.G3{r.Ex, r.Ey, r.Ez, r.Hx, r.Hy, r.Hz} {
		for i := 0; i < g.NX(); i++ {
			for j := 0; j < g.NY(); j++ {
				for _, v := range g.Pencil(i, j) {
					if a := math.Abs(v); a > max {
						max = a
					}
				}
			}
		}
	}
	return max
}

func TestVacuumPulsePropagates(t *testing.T) {
	// No objects: the pulse must spread outward and eventually excite
	// an off-centre cell, and the field must stay bounded (stability
	// under the Courant condition).
	spec := SpecSmallA()
	spec.Objects = nil
	spec.Steps = 30
	res := mustSeq(t, spec)
	if res.Ez.At(2, 5, 4) == 0 && res.Ey.At(2, 5, 4) == 0 && res.Ex.At(2, 5, 4) == 0 {
		t.Fatal("pulse did not propagate away from the source")
	}
	if m := maxFieldMagnitude(res); m > 10 {
		t.Fatalf("vacuum run unstable: max=%v", m)
	}
}

// TestFarFieldReorderDiverges is experiment E2: the far-field
// calculations do NOT fit the archetype well; the parallelization
// reorders the double sum, and floating-point addition is not
// associative, so the simulated-parallel far field differs from the
// sequential one.
func TestFarFieldReorderDiverges(t *testing.T) {
	spec := SpecSmall()
	seq := mustSeq(t, spec)
	diverged := false
	for _, p := range []int{2, 3, 4} {
		ssp := mustArch(t, spec, p, mesh.Sim, DefaultOptions())
		if !seq.FarFieldEqual(ssp) {
			diverged = true
			// The divergence is a rounding effect, not a logic bug.
			if d := seq.FarFieldMaxRelDiff(ssp); d > 1e-6 {
				t.Fatalf("p=%d: far-field deviation %g too large for pure reordering", p, d)
			}
		}
	}
	if !diverged {
		t.Fatal("expected the reordered far-field sum to differ for some p")
	}
}

func TestCompensatedFarFieldAccurate(t *testing.T) {
	spec := SpecSmall()
	// High-accuracy sequential reference.
	ref, err := RunSequentialOpts(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.FarFieldCompensated = true
	for _, p := range []int{2, 4} {
		fixed := mustArch(t, spec, p, mesh.Sim, opt)
		if d := ref.FarFieldMaxRelDiff(fixed); d > 1e-12 {
			t.Fatalf("p=%d: compensated far field deviates %g from reference", p, d)
		}
	}
}

// TestHostIOAndConcurrentIOAgree holds the host-I/O coefficient tables
// to the ones each rank builds itself; the runs' bits are the table's
// "host I/O off P=3" row.
func TestHostIOAndConcurrentIOAgree(t *testing.T) {
	spec := SpecSmall()
	dec, err := decompose(spec, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireHostIOTablesAgree(t, spec, dec)
}

func TestCombiningReducesMessageCount(t *testing.T) {
	spec := SpecSmallA()
	count := func(combine bool) int {
		opt := DefaultOptions()
		opt.Mesh.Combine = combine
		opt.Mesh.Profile = machine.NewProfile(4)
		if _, err := RunArchetype(spec, 4, mesh.Sim, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Mesh.Profile.Totals().Messages
	}
	on, off := count(true), count(false)
	if on >= off {
		t.Fatalf("combining should reduce messages: on=%d off=%d", on, off)
	}
}

func TestReductionAlgorithmChoice(t *testing.T) {
	spec := SpecSmall()
	rd := DefaultOptions()
	rd.Mesh.ReduceAlg = mesh.RecursiveDoubling
	ao := DefaultOptions()
	ao.Mesh.ReduceAlg = mesh.AllToOne
	a := mustArch(t, spec, 4, mesh.Sim, rd)
	b := mustArch(t, spec, 4, mesh.Sim, ao)
	// Far fields may differ (combination order), but only by rounding.
	if d := a.FarFieldMaxRelDiff(b); d > 1e-9 {
		t.Fatalf("reduction algorithms deviate too much: %g", d)
	}
}

func TestProfileRecordsRun(t *testing.T) {
	spec := SpecSmallA()
	opt := DefaultOptions()
	opt.Mesh.Profile = machine.NewProfile(4)
	arch := mustArch(t, spec, 4, mesh.Sim, opt)
	prof := opt.Mesh.Profile
	if prof.Totals().Work != arch.Work {
		t.Fatalf("profile work %v != result work %v", prof.Totals().Work, arch.Work)
	}
	if prof.Totals().Messages == 0 || prof.Totals().Bytes == 0 {
		t.Fatal("profile missed messages")
	}
	m := machine.IBMSP()
	if m.Time(prof) <= 0 || m.SequentialTime(prof) <= 0 {
		t.Fatal("model times must be positive")
	}
}

func TestRunArchetypeErrors(t *testing.T) {
	spec := SpecSmall()
	if _, err := RunArchetype(spec, 0, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("p=0 should error")
	}
	if _, err := RunArchetype(spec, spec.NX+1, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("p > NX should error")
	}
	bad := spec
	bad.Steps = 0
	if _, err := RunArchetype(bad, 2, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("invalid spec should error")
	}
	if _, err := RunSequential(bad); err == nil {
		t.Fatal("invalid spec should error sequentially too")
	}
}

func TestSlabOfOnePlane(t *testing.T) {
	// P == NX gives every process a single x-plane — the extreme
	// decomposition must still be bitwise correct.
	spec := SpecSmallA()
	spec.Steps = 6
	seq := mustSeq(t, spec)
	arch := mustArch(t, spec, spec.NX, mesh.Sim, DefaultOptions())
	if !seq.NearFieldEqual(arch) {
		t.Fatal("one-plane slabs diverged")
	}
}

// delaySpecs are the far-field specs the delay-table tests cover:
// SpecSmall, Table 1, the 24x16x16 job grid and a direction with
// negative components.
func delaySpecs() map[string]Spec {
	skew := SpecSmall()
	skew.FarField = &FarFieldSpec{Offset: 2, Dir: [3]float64{-0.7, 0.4, -1.3}, Pol: [3]float64{0.2, -1, 0.5}}
	return map[string]Spec{"small": SpecSmall(), "table1": SpecTable1(), "job": haloGrid(64), "negdir": skew}
}

// delayBlocks returns the full domain and every block of a 2x2
// decomposition of spec.
func delayBlocks(t *testing.T, spec Spec) []block {
	t.Helper()
	dec, err := decompose(spec, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []block{{xr: grid.Range{Lo: 0, Hi: spec.NX}, yr: grid.Range{Lo: 0, Hi: spec.NY}}}
	for r := 0; r < dec.topo.P(); r++ {
		blocks = append(blocks, dec.block(r))
	}
	return blocks
}

// TestFarFieldDelayProperties checks the surface delays and the point
// table: the smallest delay is 0, none exceeds maxDelay, the
// accumulators hold every delayed sample, and for the full domain and
// every block of a 2x2 decomposition each face's table lists the
// block's surface points in forEachSurface's order, each offset
// decoding to its point's (i, j, k) and each delay equal to
// ff.delay(i, j, k).
func TestFarFieldDelayProperties(t *testing.T) {
	for name, spec := range delaySpecs() {
		t.Run(name, func(t *testing.T) {
			full, fullY := grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY}
			ff := newFarField(spec, false, newFields(spec, full, fullY, nil))
			minD, maxD := 1<<30, -1
			points := 0
			forEachSurface(spec, 0, spec.NX, 0, spec.NY, func(face, i, j, k int) {
				points++
				d := ff.delay(i, j, k)
				minD, maxD = min(minD, d), max(maxD, d)
			})
			if points == 0 {
				t.Fatal("no surface points")
			}
			if minD != 0 {
				t.Fatalf("minimum delay should be 0, got %d", minD)
			}
			if maxD > ff.maxDelay {
				t.Fatalf("delay %d exceeds computed maximum %d", maxD, ff.maxDelay)
			}
			if len(ff.A) != spec.Steps+ff.maxDelay+1 {
				t.Fatalf("accumulator length %d", len(ff.A))
			}
			for _, b := range delayBlocks(t, spec) {
				f := newFields(spec, b.xr, b.yr, nil)
				ff := newFarField(spec, false, f)
				g := f.Ex
				var next [6]int
				forEachSurface(spec, b.xr.Lo, b.xr.Hi, b.yr.Lo, b.yr.Hi, func(face, i, j, k int) {
					pts := ff.faces[face].pts
					if next[face] >= len(pts) {
						t.Fatalf("block x%v y%v face %d: table holds %d points, surface has more", b.xr, b.yr, face, len(pts))
					}
					p := pts[next[face]]
					next[face]++
					off := int(p.off)
					di := off/g.StrideX() - g.GhostX() + b.xr.Lo
					dj := off%g.StrideX()/g.StrideY() - g.GhostY() + b.yr.Lo
					dk := off%g.StrideY() - g.GhostZ()
					if di != i || dj != j || dk != k {
						t.Fatalf("block x%v y%v face %d point (%d,%d,%d): offset %d decodes to (%d,%d,%d)",
							b.xr, b.yr, face, i, j, k, off, di, dj, dk)
					}
					if got, want := int(p.delay), ff.delay(i, j, k); got != want {
						t.Fatalf("block x%v y%v face %d point (%d,%d,%d): table delay %d, ff.delay %d",
							b.xr, b.yr, face, i, j, k, got, want)
					}
				})
				for face, n := range next {
					if n != len(ff.faces[face].pts) {
						t.Fatalf("block x%v y%v face %d: table holds %d points, surface %d", b.xr, b.yr, face, len(ff.faces[face].pts), n)
					}
				}
			}
		})
	}
}

// TestFarFieldAccumulateMatchesPerPoint holds accumulate, with its point
// table, two-term projections and register-carried samples, bitwise to
// the per-point form it replaces — forEachSurface's order, six At reads,
// ff.delay and addPoint per point — on random fields, for the full
// domain and every block of a 2x2 decomposition, naive and compensated.
func TestFarFieldAccumulateMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for name, spec := range delaySpecs() {
		for _, b := range delayBlocks(t, spec) {
			for _, comp := range []bool{false, true} {
				f := newFields(spec, b.xr, b.yr, nil)
				g := []*grid.G3{f.Ex, f.Ey, f.Ez, f.Hx, f.Hy, f.Hz}
				for _, x := range g {
					randomizeStorage(rng, x)
				}
				got, want := newFarField(spec, comp, f), newFarField(spec, comp, f)
				for n := 0; n < 3; n++ {
					pts := got.accumulate(n)
					wantPts := 0
					forEachSurface(spec, b.xr.Lo, b.xr.Hi, b.yr.Lo, b.yr.Hi, func(face, i, j, k int) {
						li, lj := i-b.xr.Lo, j-b.yr.Lo
						want.addPoint(face, n+want.delay(i, j, k),
							f.Ex.At(li, lj, k), f.Ey.At(li, lj, k), f.Ez.At(li, lj, k),
							f.Hx.At(li, lj, k), f.Hy.At(li, lj, k), f.Hz.At(li, lj, k))
						wantPts++
					})
					if pts != wantPts {
						t.Fatalf("%s block x%v y%v: %d points, per-point form %d", name, b.xr, b.yr, pts, wantPts)
					}
				}
				ga, gf := got.finalize()
				wa, wf := want.finalize()
				for m := range wa {
					if math.Float64bits(ga[m]) != math.Float64bits(wa[m]) || math.Float64bits(gf[m]) != math.Float64bits(wf[m]) {
						t.Fatalf("%s block x%v y%v compensated=%v: sample %d differs from the per-point form",
							name, b.xr, b.yr, comp, m)
					}
				}
			}
		}
	}
}

func TestSurfacePartitionCoversExactlyOnce(t *testing.T) {
	// The union of per-slab surface enumerations must equal the global
	// enumeration with no duplicates.
	spec := SpecSmall()
	type pt struct{ face, i, j, k int }
	global := map[pt]int{}
	forEachSurface(spec, 0, spec.NX, 0, spec.NY, func(face, i, j, k int) { global[pt{face, i, j, k}]++ })
	union := map[pt]int{}
	for _, bounds := range [][2]int{{0, 5}, {5, 9}, {9, 13}} {
		forEachSurface(spec, bounds[0], bounds[1], 0, spec.NY, func(face, i, j, k int) { union[pt{face, i, j, k}]++ })
	}
	// A 2-D partition must also cover every point exactly once.
	union2 := map[pt]int{}
	for _, xb := range [][2]int{{0, 6}, {6, 13}} {
		for _, yb := range [][2]int{{0, 4}, {4, 10}} {
			forEachSurface(spec, xb[0], xb[1], yb[0], yb[1], func(face, i, j, k int) { union2[pt{face, i, j, k}]++ })
		}
	}
	if len(union2) != len(global) {
		t.Fatalf("2-D partition covers %d points, global has %d", len(union2), len(global))
	}
	for p, n := range union2 {
		if n != 1 {
			t.Fatalf("2-D partition point %v counted %d times", p, n)
		}
	}
	if len(global) != len(union) {
		t.Fatalf("partition covers %d points, global has %d", len(union), len(global))
	}
	for p, n := range union {
		if n != 1 || global[p] != 1 {
			t.Fatalf("point %v counted %d/%d times", p, n, global[p])
		}
	}
}

func TestSourcePulseShape(t *testing.T) {
	s := SourceSpec{Amplitude: 2, Delay: 10, Width: 3}
	if s.Pulse(10) != 2 {
		t.Fatalf("peak = %v", s.Pulse(10))
	}
	if s.Pulse(0) >= s.Pulse(7) || s.Pulse(7) >= s.Pulse(10) {
		t.Fatal("pulse should rise toward the delay")
	}
	if math.Abs(s.Pulse(7)-s.Pulse(13)) > 1e-15 {
		t.Fatal("pulse should be symmetric about the delay")
	}
}

func TestDESRefinesBSPBound(t *testing.T) {
	// The discrete-event replay of a real run must be no slower than
	// the bulk-synchronous bound computed from the same run — and for
	// a neighbour-exchange code it is strictly faster, because the BSP
	// bound synchronises every exchange globally.
	spec := SpecSmallA()
	opt := DefaultOptions()
	opt.Mesh.Profile = machine.NewProfile(4)
	if _, err := RunArchetype(spec, 4, mesh.Sim, opt); err != nil {
		t.Fatal(err)
	}
	m := machine.SunEthernet()
	_, des, err := m.DES(opt.Mesh.Profile)
	if err != nil {
		t.Fatal(err)
	}
	bsp := m.Time(opt.Mesh.Profile)
	if des > bsp {
		t.Fatalf("DES time %v exceeds the BSP bound %v", des, bsp)
	}
	if des <= 0 {
		t.Fatal("DES time should be positive")
	}
}

func TestProfileIdenticalAcrossRuntimes(t *testing.T) {
	// The event sequence is part of the program's deterministic
	// behaviour: Sim and Par runs record the same number of events and
	// yield the same DES time.
	run := func(mode mesh.Mode) (int, float64) {
		opt := DefaultOptions()
		opt.Mesh.Profile = machine.NewProfile(3)
		if _, err := RunArchetype(SpecSmallA(), 3, mode, opt); err != nil {
			t.Fatal(err)
		}
		_, des, err := machine.IBMSP().DES(opt.Mesh.Profile)
		if err != nil {
			t.Fatal(err)
		}
		return opt.Mesh.Profile.Totals().Events, des
	}
	nSim, tSim := run(mesh.Sim)
	nPar, tPar := run(mesh.Par)
	if nSim != nPar {
		t.Fatalf("event counts differ: %d vs %d", nSim, nPar)
	}
	if tSim != tPar {
		t.Fatalf("DES times differ: %v vs %v", tSim, tPar)
	}
}
