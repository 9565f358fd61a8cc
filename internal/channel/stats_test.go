package channel

import (
	"sync"
	"testing"
)

// TestCountedSequential checks the counters against a known traffic
// pattern recorded with RecordSend/RecordRecv.
func TestCountedSequential(t *testing.T) {
	const p = 3
	stats := NewNetStats(p)

	// 0 -> 1: five sends, then three receives (two left queued).
	for i := 0; i < 5; i++ {
		stats.RecordSend(0, 1)
	}
	for i := 0; i < 3; i++ {
		stats.RecordRecv(0, 1)
	}
	// 2 -> 0: one send, one receive.
	stats.RecordSend(2, 0)
	stats.RecordRecv(2, 0)

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

// TestCountedConcurrent records a concurrent channel's traffic from a
// producer and a consumer goroutine, each recording after its operation
// as sched.Ctx does; under -race this vets that the counters add no
// unsynchronised state.
func TestCountedConcurrent(t *testing.T) {
	const n = 2000
	stats := NewNetStats(2)
	ep := NewChan[int]()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ep.Send(i)
			stats.RecordSend(0, 1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if got := ep.Recv(); got != i {
				t.Errorf("recv %d: got %d", i, got)
				return
			}
			stats.RecordRecv(0, 1)
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
