package machine

import (
	"math"
	"testing"
)

func TestDESPureCompute(t *testing.T) {
	m := Model{SecPerWork: 2}
	f := NewProfile(3)
	f.Work(0, 10)
	f.Work(1, 5)
	f.Work(2, 8)
	per, total, err := m.DES(f)
	if err != nil {
		t.Fatal(err)
	}
	if per[0] != 20 || per[1] != 10 || per[2] != 16 {
		t.Fatalf("per = %v", per)
	}
	if total != 20 {
		t.Fatalf("total = %v", total)
	}
}

func TestDESMessageDelays(t *testing.T) {
	m := Model{SecPerWork: 1, Latency: 10, SecPerByte: 0.5}
	f := NewProfile(2)
	// P0: work 4, send 8 bytes to P1.
	f.Work(0, 4)
	f.Send(0, 1, 8)
	// P1: recv, work 1.
	f.Recv(1, 0)
	f.Work(1, 1)
	per, total, err := m.DES(f)
	if err != nil {
		t.Fatal(err)
	}
	// arrival = 4 + 10 + 4 = 18; P1 = 18 + 1 = 19; P0 = 4 + 4 = 8.
	if per[0] != 8 || per[1] != 19 || total != 19 {
		t.Fatalf("per = %v total = %v", per, total)
	}
}

func TestDESNoWaitWhenMessageEarly(t *testing.T) {
	m := Model{SecPerWork: 1, Latency: 1}
	f := NewProfile(2)
	f.Send(0, 1, 0) // arrives at t=1
	f.Work(1, 50)   // busy far past the arrival
	f.Recv(1, 0)    // no extra wait
	per, _, err := m.DES(f)
	if err != nil {
		t.Fatal(err)
	}
	if per[1] != 50 {
		t.Fatalf("P1 = %v, want 50", per[1])
	}
}

func TestDESFIFOOrderAcrossMessages(t *testing.T) {
	m := Model{Latency: 1, SecPerByte: 1}
	f := NewProfile(2)
	f.Send(0, 1, 4) // arrival 0+1+4 = 5, clock -> 4
	f.Send(0, 1, 2) // arrival 4+1+2 = 7
	f.Recv(1, 0)
	f.Recv(1, 0)
	per, _, err := m.DES(f)
	if err != nil {
		t.Fatal(err)
	}
	if per[1] != 7 {
		t.Fatalf("P1 = %v, want 7", per[1])
	}
}

func TestDESIncompleteLog(t *testing.T) {
	m := Model{}
	f := NewProfile(2)
	f.Recv(1, 0) // no matching send, ever
	if _, _, err := m.DES(f); err == nil {
		t.Fatal("causally incomplete log accepted")
	}
}

func TestDESPipelineBeatsBSPBound(t *testing.T) {
	// A 4-stage pipeline: under the BSP bound every stage becomes a
	// global phase; under DES the stages overlap, so DES must be
	// strictly faster for multi-item pipelines.
	m := Model{SecPerWork: 1, Latency: 0.1}
	const p, items = 4, 8
	f := NewProfile(p)
	for it := 0; it < items; it++ {
		for stage := 0; stage < p; stage++ {
			if stage > 0 {
				f.Recv(stage, stage-1)
			}
			f.Work(stage, 1)
			if stage < p-1 {
				f.Send(stage, stage+1, 8)
			}
			endPhase(f)
		}
	}
	_, des, err := m.DES(f)
	if err != nil {
		t.Fatal(err)
	}
	bsp := m.Time(f)
	if des >= bsp {
		t.Fatalf("DES %v should beat the BSP bound %v on a pipeline", des, bsp)
	}
	// And the pipeline bound holds: first item takes p stages, the rest
	// one stage each, plus latencies.
	minTime := float64(p + items - 1)
	if des < minTime {
		t.Fatalf("DES %v below the theoretical pipeline bound %v", des, minTime)
	}
}

func TestDESMatchesBSPOnFullySynchronousProgram(t *testing.T) {
	// With uniform work and an all-pairs barrier every step, BSP is
	// tight: DES and BSP agree closely.
	m := Model{SecPerWork: 1, Latency: 0.01}
	const p, steps = 3, 5
	f := NewProfile(p)
	for s := 0; s < steps; s++ {
		for i := 0; i < p; i++ {
			f.Work(i, 10)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					f.Send(i, j, 0)
				}
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					f.Recv(i, j)
				}
			}
		}
		endPhase(f)
	}
	_, des, err := m.DES(f)
	if err != nil {
		t.Fatal(err)
	}
	bsp := m.Time(f)
	if des > bsp {
		t.Fatalf("DES %v exceeds the BSP bound %v", des, bsp)
	}
	if math.Abs(des-bsp)/bsp > 0.2 {
		t.Fatalf("fully synchronous program: DES %v should be close to BSP %v", des, bsp)
	}
}
