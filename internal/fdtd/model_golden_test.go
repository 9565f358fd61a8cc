package fdtd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/mesh"
)

// modelReading is everything the machine model reads off one recorded
// run: the recorded counts and, per machine, the float64 bits of
// Time, Breakdown.Compute, Breakdown.Comm, SequentialTime and the DES
// total.
type modelReading struct {
	Messages int
	Bytes    int64
	Phases   int
	Events   int
	Sun, SP  [5]uint64
}

func (r modelReading) String() string {
	return fmt.Sprintf("{Messages: %d, Bytes: %d, Phases: %d, Events: %d, Sun: %#x, SP: %#x}",
		r.Messages, r.Bytes, r.Phases, r.Events, r.Sun, r.SP)
}

// modelBits returns the five model readings of one machine as bits.
func modelBits(t *testing.T, m machine.Model, prof *machine.Profile) [5]uint64 {
	t.Helper()
	_, des, err := m.DES(prof)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Breakdown(prof)
	return [5]uint64{
		math.Float64bits(m.Time(prof)),
		math.Float64bits(b.Compute),
		math.Float64bits(b.Comm),
		math.Float64bits(m.SequentialTime(prof)),
		math.Float64bits(des),
	}
}

// readModel records one run of the archetype program on p processes
// and returns what the machine model reads off the recording.
func readModel(t *testing.T, p int, opt Options, run func(Options) error) modelReading {
	t.Helper()
	prof := machine.NewProfile(p)
	opt.Mesh.Profile = prof
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	tot := prof.Totals()
	return modelReading{
		Messages: tot.Messages,
		Bytes:    tot.Bytes,
		Phases:   tot.Phases,
		Events:   tot.Events,
		Sun:      modelBits(t, machine.SunEthernet(), prof),
		SP:       modelBits(t, machine.IBMSP(), prof),
	}
}

// TestModelGolden pins, bit for bit, the machine model's readings of
// five recorded configurations under both machines and both runtimes.
// The recorder and the model may be restructured freely, but every
// reading here must survive the restructuring unchanged: these are the
// numbers behind the reproduced speedup curves.
func TestModelGolden(t *testing.T) {
	table1 := SpecTable1()
	table1.Steps = 8
	uncombined := DefaultOptions()
	uncombined.Mesh.Combine = false
	cases := []struct {
		name string
		p    int
		opt  Options
		run  func(mode mesh.Mode, opt Options) error
		want modelReading
	}{
		{"SmallA/P=4", 4, DefaultOptions(), func(mode mesh.Mode, opt Options) error {
			_, err := RunArchetype(SpecSmallA(), 4, mode, opt)
			return err
		}, modelReading{
			Messages: 131, Bytes: 180880, Phases: 74, Events: 390,
			Sun: [5]uint64{0x3fd343dbf7e2fb0f, 0x3fabe6e653868fd0, 0x3fcf8dfe5ae45227, 0x3fc77ea1c68ec52a, 0x3fc3e758694da176},
			SP:  [5]uint64{0x3f8a9b6e0b38fa78, 0x3f765251dc6ba643, 0x3f7ee48a3a064eb1, 0x3f92cbb49ed89dbb, 0x3f813e909be2c3ec},
		}},
		{"SmallA/P=3/uncombined", 3, uncombined, func(mode mesh.Mode, opt Options) error {
			_, err := RunArchetype(SpecSmallA(), 3, mode, opt)
			return err
		}, modelReading{
			Messages: 192, Bytes: 129376, Phases: 74, Events: 480,
			Sun: [5]uint64{0x3fdd7f879f9c1218, 0x3fb1c4b90214ad36, 0x3fd90e595f16e6cf, 0x3fc77ea1c68ec52a, 0x3fc602462b5d7bcf},
			SP:  [5]uint64{0x3f92c1c251862340, 0x3f7c6df4d0211523, 0x3f874c8a3afbbbe8, 0x3f92cbb49ed89dbb, 0x3f846087e1667a72},
		}},
		{"Table1x8/8-slabs", 8, DefaultOptions(), func(mode mesh.Mode, opt Options) error {
			_, err := RunArchetype(table1, 8, mode, opt)
			return err
		}, modelReading{
			Messages: 247, Bytes: 3479104, Phases: 44, Events: 686,
			Sun: [5]uint64{0x400239595281ad14, 0x3fdeeae9ee45c359, 0x3ffcb7f82971e952, 0x400a831ad2135daa, 0x3fed5072df1aad1f},
			SP:  [5]uint64{0x3fbc69b3bb652182, 0x3fa8bbee5837cf7b, 0x3fb00bbc8f4939c9, 0x3fd535af0e75e488, 0x3fafeaec728481d2},
		}},
		{"Table1x8/4x2-blocks", 8, DefaultOptions(), func(mode mesh.Mode, opt Options) error {
			_, err := RunArchetype2D(table1, 4, 2, mode, opt)
			return err
		}, modelReading{
			Messages: 295, Bytes: 2661856, Phases: 76, Events: 782,
			Sun: [5]uint64{0x40011b9ca91892a0, 0x3fdd6c2efd438d1e, 0x3ffadc2d92e041f6, 0x400a831ad2135daa, 0x3fea5df8d99b1164},
			SP:  [5]uint64{0x3fbab27f9fb5f49d, 0x3fa789bf3102d74c, 0x3faddb400e6911f4, 0x3fd535af0e75e488, 0x3fadb39d32309750},
		}},
		{"Small/P=2", 2, DefaultOptions(), func(mode mesh.Mode, opt Options) error {
			_, err := RunArchetype(SpecSmall(), 2, mode, opt)
			return err
		}, modelReading{
			Messages: 47, Bytes: 74640, Phases: 76, Events: 190,
			Sun: [5]uint64{0x3fcdf138bcdfefc1, 0x3fba8cdea033e790, 0x3fc0aac96cc5fbf9, 0x3fc88d2a1f8e3ac0, 0x3fcb79be31ff5684},
			SP:  [5]uint64{0x3f8d753d1f07e452, 0x3f853d7ee68fec73, 0x3f706f7c70efefc9, 0x3f93a421b2d82f00, 0x3f8c0d0209a6cdfb},
		}},
	}
	for _, tc := range cases {
		for _, mode := range []mesh.Mode{mesh.Sim, mesh.Par} {
			got := readModel(t, tc.p, tc.opt, func(opt Options) error { return tc.run(mode, opt) })
			if got != tc.want {
				t.Errorf("%s under %v:\n got %v\nwant %v", tc.name, mode, got, tc.want)
			}
		}
	}
}
