package farm

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/explore"
	"repro/internal/sched"
)

func TestScheduleBlock(t *testing.T) {
	// 7 tasks over 3 procs: 3+2+2.
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	for r, w := range want {
		if got := Block.Tasks(7, 3, r); !reflect.DeepEqual(got, w) {
			t.Fatalf("block proc %d: %v want %v", r, got, w)
		}
	}
}

func TestScheduleCyclic(t *testing.T) {
	want := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	for r, w := range want {
		if got := Cyclic.Tasks(7, 3, r); !reflect.DeepEqual(got, w) {
			t.Fatalf("cyclic proc %d: %v want %v", r, got, w)
		}
	}
}

// Property: every schedule partitions [0, n) exactly.
func TestSchedulesPartition(t *testing.T) {
	prop := func(n16 uint16, p8 uint8, cyclic bool) bool {
		n := int(n16) % 100
		p := int(p8)%8 + 1
		s := Block
		if cyclic {
			s = Cyclic
		}
		seen := make([]int, n)
		for r := 0; r < p; r++ {
			prev := -1
			for _, task := range s.Tasks(n, p, r) {
				if task <= prev { // increasing order within a process
					return false
				}
				prev = task
				if task < 0 || task >= n {
					return false
				}
				seen[task]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func square(task int) int { return task * task }

func TestMapBothModesAndSchedules(t *testing.T) {
	want := make([]int, 23)
	for i := range want {
		want[i] = i * i
	}
	for _, mode := range []Mode{Sim, Par} {
		for _, s := range []Schedule{Block, Cyclic} {
			for _, combine := range []bool{true, false} {
				for _, p := range []int{1, 2, 5, 23, 30} {
					got, err := Map(23, p, mode, Options{Schedule: s, Combine: combine}, square)
					if err != nil {
						t.Fatalf("mode=%v s=%v p=%d: %v", mode, s, p, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("mode=%v s=%v combine=%v p=%d: %v", mode, s, combine, p, got)
					}
				}
			}
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	got, err := Map(0, 3, Sim, DefaultOptions(), square)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := Map(5, 0, Sim, DefaultOptions(), square); err == nil {
		t.Fatal("p=0 should error")
	}
	if _, err := Map(-1, 2, Sim, DefaultOptions(), square); err == nil {
		t.Fatal("n<0 should error")
	}
	if _, err := Map(5, 2, Mode(9), DefaultOptions(), square); err == nil {
		t.Fatal("bad mode should error")
	}
}

func TestFarmDeterminacy(t *testing.T) {
	// The farm is a deterministic network: the interleavings every
	// default continuation policy picks, and free-running goroutines,
	// reach the same final states.
	mk := func() []sched.Proc[Msg[float64], []float64] {
		return Procs(17, 4, DefaultOptions(), func(task int) float64 {
			return float64(task) * 1.5
		})
	}
	if _, err := explore.Across(mk, explore.Options[[]float64]{Mode: explore.DepChannel}, sched.DefaultPolicies(3)); err != nil {
		t.Fatalf("farm not determinate: %v", err)
	}
	want, err := sched.RunControlled(mk(), sched.Lowest{}, sched.Options[Msg[float64]]{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		got, err := sched.RunConcurrent(mk(), sched.Options[Msg[float64]]{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent run %d: %v, final states %v, want %v", k, err, got, want)
		}
	}
}

func TestGenericResultTypes(t *testing.T) {
	type pixel struct {
		Task  int
		Label string
	}
	got, err := Map(4, 2, Par, DefaultOptions(), func(task int) pixel {
		return pixel{Task: task, Label: "t"}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if p.Task != i || p.Label != "t" {
			t.Fatalf("pixel %d = %+v", i, p)
		}
	}
	// Slice results work too (rows of an image, say).
	rows, err := Map(3, 3, Sim, Options{Schedule: Block, Combine: true}, func(task int) []int {
		return []int{task, task + 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows[2], []int{2, 3}) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestScheduleString(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Fatal("schedule names")
	}
	if Schedule(9).String() == "" {
		t.Fatal("unknown schedule should render")
	}
}
