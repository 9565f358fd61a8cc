package machine

import (
	"math"
	"sync"
	"testing"
)

// endPhase closes the current phase of every process of f.
func endPhase(f *Profile) {
	for proc := 0; proc < f.P(); proc++ {
		f.EndPhase(proc)
	}
}

func TestProfileTotals(t *testing.T) {
	f := NewProfile(2)
	if f.P() != 2 || f.Totals() != (Totals{}) {
		t.Fatalf("empty profile: P = %d, totals %+v", f.P(), f.Totals())
	}
	f.Work(0, 100)
	f.Work(1, 50)
	f.Send(0, 1, 800)
	f.Recv(1, 0)
	endPhase(f)
	f.Work(0, 10)
	want := Totals{Work: 160, Messages: 1, Bytes: 800, Phases: 2, Events: 5}
	if got := f.Totals(); got != want {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
}

// TestProfileEventCounts: the events DES replays are counted, phase
// ends are not, and a nil profile records nothing.
func TestProfileEventCounts(t *testing.T) {
	f := NewProfile(2)
	f.Work(0, 1)
	f.Send(0, 1, 8)
	f.Recv(1, 0)
	endPhase(f)
	if got := f.Totals().Events; got != 3 {
		t.Fatalf("Events = %d, want 3", got)
	}
	var nilProfile *Profile
	nilProfile.Work(0, 1) // a nil profile records nothing and does not panic
	nilProfile.Send(0, 1, 8)
	nilProfile.Recv(1, 0)
	nilProfile.EndPhase(0)
}

func TestTimeIsMaxPerPhase(t *testing.T) {
	m := Model{SecPerWork: 1, Latency: 0, SecPerByte: 0}
	f := NewProfile(2)
	f.Work(0, 10)
	f.Work(1, 4)
	endPhase(f)
	f.Work(0, 1)
	f.Work(1, 7)
	// Phase bound: max(10,4) + max(1,7) = 17, not max over totals (11).
	if got := m.Time(f); got != 17 {
		t.Fatalf("Time = %v, want 17", got)
	}
	if got := m.SequentialTime(f); got != 22 {
		t.Fatalf("SequentialTime = %v, want 22", got)
	}
}

func TestTimeIncludesCommCosts(t *testing.T) {
	m := Model{SecPerWork: 0, Latency: 2, SecPerByte: 0.5}
	f := NewProfile(3)
	f.Send(0, 1, 10) // both endpoints charged: msgs=1 each, bytes=10 each
	f.Send(0, 2, 10)
	// proc 0: 2 msgs, 20 bytes -> 2*2 + 20*0.5 = 14; procs 1,2: 1 msg,
	// 10 bytes -> 7.  Max = 14.
	if got := m.Time(f); got != 14 {
		t.Fatalf("Time = %v, want 14", got)
	}
}

func TestMessageChargedInSendersPhase(t *testing.T) {
	m := Model{SecPerWork: 1, Latency: 1}
	f := NewProfile(2)
	f.EndPhase(1) // P1 runs ahead into phase 1 ...
	f.Work(1, 5)
	f.Send(0, 1, 0) // ... so P0's phase-0 message reaches it there
	f.Recv(1, 0)
	f.EndPhase(0)
	// Phase 0: comm max(1, 1) = 1; phase 1: compute 5.  Charging P1 in
	// its own phase would give 1 + (5 + 1) = 7.
	if got := m.Time(f); got != 6 {
		t.Fatalf("Time = %v, want 6", got)
	}
}

func TestPerfectScalingWithoutComm(t *testing.T) {
	m := Model{SecPerWork: 1e-6}
	mkProfile := func(p int) *Profile {
		f := NewProfile(p)
		for i := 0; i < p; i++ {
			f.Work(i, 1000/float64(p))
		}
		return f
	}
	seq := m.SequentialTime(mkProfile(1))
	for _, p := range []int{2, 4, 8} {
		sp := Speedup(seq, m.Time(mkProfile(p)))
		if math.Abs(sp-float64(p)) > 1e-9 {
			t.Fatalf("p=%d: speedup = %v, want %d", p, sp, p)
		}
		if math.Abs(Efficiency(sp, p)-1) > 1e-9 {
			t.Fatalf("p=%d: efficiency = %v", p, Efficiency(sp, p))
		}
	}
}

func TestCommMakesSpeedupSubLinear(t *testing.T) {
	m := SunEthernet()
	work := 1e6
	mkProfile := func(p int) *Profile {
		f := NewProfile(p)
		for i := 0; i < p; i++ {
			f.Work(i, work/float64(p))
			if i > 0 {
				f.Send(i-1, i, 8*1000)
			}
		}
		return f
	}
	seq := work * m.SecPerWork
	prev := 0.0
	for _, p := range []int{2, 4, 8} {
		sp := Speedup(seq, m.Time(mkProfile(p)))
		if sp >= float64(p) {
			t.Fatalf("p=%d: speedup %v should be sub-linear", p, sp)
		}
		if sp <= prev {
			t.Fatalf("p=%d: speedup %v should still grow (prev %v)", p, sp, prev)
		}
		prev = sp
	}
}

func TestIBMSPScalesBetterThanSuns(t *testing.T) {
	// Same program profile, both machines: the lower-latency SP must
	// achieve higher parallel efficiency.
	mkProfile := func(p int) *Profile {
		f := NewProfile(p)
		for step := 0; step < 10; step++ {
			for i := 0; i < p; i++ {
				f.Work(i, 1e5/float64(p))
				if i+1 < p {
					f.Send(i, i+1, 8*4096)
				}
			}
			endPhase(f)
		}
		return f
	}
	for _, p := range []int{4, 8} {
		f := mkProfile(p)
		sun, sp := SunEthernet(), IBMSP()
		effSun := Efficiency(Speedup(sun.SequentialTime(f), sun.Time(f)), p)
		effSP := Efficiency(Speedup(sp.SequentialTime(f), sp.Time(f)), p)
		if effSP <= effSun {
			t.Fatalf("p=%d: SP efficiency %v should exceed Sun efficiency %v", p, effSP, effSun)
		}
	}
}

func TestProfileConcurrentUse(t *testing.T) {
	f := NewProfile(4)
	var wg sync.WaitGroup
	for proc := 0; proc < 4; proc++ {
		proc := proc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ph := 0; ph < 100; ph++ {
				f.Work(proc, 1)
				f.Send(proc, (proc+1)%4, 8)
				f.Recv(proc, (proc+3)%4)
				f.EndPhase(proc)
			}
		}()
	}
	wg.Wait()
	want := Totals{Work: 400, Messages: 400, Bytes: 3200, Phases: 100, Events: 1200}
	if got := f.Totals(); got != want {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
	if _, _, err := (Model{}).DES(f); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrate(t *testing.T) {
	base := IBMSP()
	m := base.Calibrate(1e6, 2.0)
	if m.SecPerWork != 2e-6 {
		t.Fatalf("SecPerWork = %v", m.SecPerWork)
	}
	// The compute-to-communication balance must be preserved.
	wantRatio := base.Latency / base.SecPerWork
	gotRatio := m.Latency / m.SecPerWork
	if math.Abs(gotRatio-wantRatio)/wantRatio > 1e-12 {
		t.Fatalf("latency/compute balance changed: %v vs %v", gotRatio, wantRatio)
	}
	wantByte := base.SecPerByte / base.SecPerWork
	gotByte := m.SecPerByte / m.SecPerWork
	if math.Abs(gotByte-wantByte)/wantByte > 1e-12 {
		t.Fatalf("bandwidth/compute balance changed: %v vs %v", gotByte, wantByte)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on zero work")
			}
		}()
		IBMSP().Calibrate(0, 1)
	}()
}

func TestSpeedupEdgeCases(t *testing.T) {
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero parallel time should give +Inf speedup")
	}
	if Speedup(4, 2) != 2 {
		t.Fatal("speedup arithmetic")
	}
}

func TestNewProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProfile(0)
}

func TestPresetsSane(t *testing.T) {
	sun, sp := SunEthernet(), IBMSP()
	if sun.Latency <= sp.Latency {
		t.Fatal("Ethernet latency should exceed SP switch latency")
	}
	if sun.SecPerByte <= sp.SecPerByte {
		t.Fatal("Ethernet bandwidth should be worse than SP switch")
	}
	if sun.SecPerWork <= sp.SecPerWork {
		t.Fatal("Sun nodes should be slower than SP nodes")
	}
	if sun.Name == "" || sp.Name == "" {
		t.Fatal("presets should be named")
	}
}

func TestBreakdownSumsToTime(t *testing.T) {
	m := SunEthernet()
	f := NewProfile(3)
	f.Work(0, 5000)
	f.Work(1, 3000)
	f.Send(0, 1, 4096)
	endPhase(f)
	f.Work(2, 7000)
	f.Send(1, 2, 128)
	b := m.Breakdown(f)
	if b.Compute <= 0 || b.Comm <= 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if diff := math.Abs(b.Compute + b.Comm - m.Time(f)); diff > 1e-15 {
		t.Fatalf("breakdown does not sum to total: %+v vs %v", b, m.Time(f))
	}
}

func TestBreakdownCommGrowsWithLatency(t *testing.T) {
	f := NewProfile(2)
	f.Send(0, 1, 8)
	low := Model{SecPerWork: 1, Latency: 1e-6, SecPerByte: 0}
	high := Model{SecPerWork: 1, Latency: 1e-3, SecPerByte: 0}
	if high.Breakdown(f).Comm <= low.Breakdown(f).Comm {
		t.Fatal("latency must increase the comm share")
	}
}
