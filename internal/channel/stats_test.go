package channel

import (
	"sync"
	"testing"
)

// TestCountedSequential checks the counters against a known traffic
// pattern on counted QueueNet channels.
func TestCountedSequential(t *testing.T) {
	const p = 3
	stats := NewNetStats(p)
	net := NewQueueNet[int](p)
	ab := Counted(stats, 0, 1, net.Chan(0, 1))
	ca := Counted(stats, 2, 0, net.Chan(2, 0))

	// 0 -> 1: five sends, then three receives (two left queued).
	for i := 0; i < 5; i++ {
		ab.Send(i)
	}
	for i := 0; i < 3; i++ {
		if got := ab.Recv(); got != i {
			t.Fatalf("recv %d: got %d", i, got)
		}
	}
	// 2 -> 0: one send, drained by TryRecv.
	ca.Send(42)
	if v, ok := ca.TryRecv(); !ok || v != 42 {
		t.Fatalf("TryRecv = %d, %v", v, ok)
	}

	if got := stats.Messages(0, 1); got != 5 {
		t.Errorf("Messages(0,1) = %d, want 5", got)
	}
	if got := stats.Received(0, 1); got != 3 {
		t.Errorf("Received(0,1) = %d, want 3", got)
	}
	if got := stats.HighWater(0, 1); got != 5 {
		t.Errorf("HighWater(0,1) = %d, want 5", got)
	}
	if got := stats.Messages(2, 0); got != 1 {
		t.Errorf("Messages(2,0) = %d, want 1", got)
	}
	if got := stats.TotalMessages(); got != 6 {
		t.Errorf("TotalMessages = %d, want 6", got)
	}
	if got := stats.MaxHighWater(); got != 5 {
		t.Errorf("MaxHighWater = %d, want 5", got)
	}
	if got := stats.Messages(1, 0); got != 0 {
		t.Errorf("Messages(1,0) = %d, want 0", got)
	}
}

// TestCountedConcurrent drives a counted concurrent channel from a
// producer and a consumer goroutine; under -race this vets that the
// decorator adds no unsynchronised state.
func TestCountedConcurrent(t *testing.T) {
	const n = 2000
	stats := NewNetStats(2)
	ep := Counted[int](stats, 0, 1, NewChan[int]())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ep.Send(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if got := ep.Recv(); got != i {
				t.Errorf("recv %d: got %d", i, got)
				return
			}
		}
	}()
	wg.Wait()
	if got := stats.Messages(0, 1); got != n {
		t.Errorf("Messages = %d, want %d", got, n)
	}
	if got := stats.Received(0, 1); got != n {
		t.Errorf("Received = %d, want %d", got, n)
	}
	if hw := stats.HighWater(0, 1); hw < 1 || hw > n {
		t.Errorf("HighWater = %d, want within [1,%d]", hw, n)
	}
	if ep.Len() != 0 {
		t.Errorf("queue not drained: len %d", ep.Len())
	}
}
