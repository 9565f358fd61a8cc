package channel

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 10; i++ {
		q.Send(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		if v := q.Recv(); v != i {
			t.Fatalf("Recv = %d, want %d", v, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
	if q.Sends != 10 {
		t.Fatalf("Sends = %d", q.Sends)
	}
}

func TestQueueEmptyRecvPanics(t *testing.T) {
	q := NewQueue[string]()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty receive")
		}
	}()
	q.Recv()
}

func TestQueueTryRecv(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty should fail")
	}
	q.Send(7)
	v, ok := q.TryRecv()
	if !ok || v != 7 {
		t.Fatalf("TryRecv = %d,%v", v, ok)
	}
}

func TestQueueReuseAfterDrain(t *testing.T) {
	q := NewQueue[int]()
	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			q.Send(i)
		}
		for i := 0; i < 100; i++ {
			if q.Recv() != i {
				t.Fatal("FIFO order broken across drain cycles")
			}
		}
	}
}

func TestChanBlockingRecv(t *testing.T) {
	c := NewChan[int]()
	done := make(chan int)
	go func() { done <- c.Recv() }()
	select {
	case <-done:
		t.Fatal("Recv returned before Send")
	case <-time.After(10 * time.Millisecond):
	}
	c.Send(42)
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv never woke up")
	}
}

func TestChanNeverBlocksOnSend(t *testing.T) {
	c := NewChan[int]()
	// A bounded Go channel would deadlock here; infinite slack must not.
	for i := 0; i < 100000; i++ {
		c.Send(i)
	}
	if c.Len() != 100000 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < 100000; i++ {
		if c.Recv() != i {
			t.Fatal("order broken")
		}
	}
}

func TestChanTryRecv(t *testing.T) {
	c := NewChan[int]()
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty should fail")
	}
	c.Send(3)
	if v, ok := c.TryRecv(); !ok || v != 3 {
		t.Fatalf("TryRecv = %d,%v", v, ok)
	}
}

func TestChanSingleWriterSingleReaderOrder(t *testing.T) {
	c := NewChan[int]()
	const n = 10000
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan string, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c.Send(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if v := c.Recv(); v != i {
				select {
				case errs <- "order violated":
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

func TestNetRouting(t *testing.T) {
	n := NewQueueNet[int](3)
	if n.P() != 3 {
		t.Fatalf("P = %d", n.P())
	}
	n.Chan(0, 2).Send(10)
	n.Chan(2, 0).Send(20)
	n.Chan(0, 0).Send(30) // self-channel is legal
	if n.Pending() != 3 {
		t.Fatalf("Pending = %d", n.Pending())
	}
	if v := n.Chan(0, 2).Recv(); v != 10 {
		t.Fatalf("Recv(0,2) = %d", v)
	}
	if v := n.Chan(2, 0).Recv(); v != 20 {
		t.Fatalf("Recv(2,0) = %d", v)
	}
	if v := n.Chan(0, 0).Recv(); v != 30 {
		t.Fatalf("Recv(0,0) = %d", v)
	}
	if n.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", n.Pending())
	}
}

func TestNetChannelsAreIndependent(t *testing.T) {
	n := NewQueueNet[int](2)
	n.Chan(0, 1).Send(1)
	n.Chan(1, 0).Send(2)
	// Draining one direction must not disturb the other.
	if n.Chan(0, 1).Recv() != 1 {
		t.Fatal("wrong value on 0->1")
	}
	if n.Chan(1, 0).Len() != 1 {
		t.Fatal("1->0 disturbed")
	}
}

func TestNetBoundsChecks(t *testing.T) {
	n := NewChanNet[int](2)
	for _, f := range []func(){
		func() { n.Chan(-1, 0).Send(1) },
		func() { n.Chan(0, 2).Send(1) },
		func() { n.Chan(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNewNetPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueueNet[int](0)
}

// Property: any sequence of sends then receives on a Queue preserves
// order and count (FIFO semantics).
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		q := NewQueue[float64]()
		for _, v := range vals {
			q.Send(v)
		}
		for _, v := range vals {
			got := q.Recv()
			// Bitwise comparison: NaN must round-trip too.
			if got != v && !(got != got && v != v) {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved send/receive patterns preserve FIFO order on
// the concurrent channel too (single reader, single writer).
func TestChanFIFOProperty(t *testing.T) {
	prop := func(batches []uint8) bool {
		c := NewChan[int]()
		next, expect := 0, 0
		for _, b := range batches {
			k := int(b)%7 + 1
			for i := 0; i < k; i++ {
				c.Send(next)
				next++
			}
			for i := 0; i < k; i++ {
				if c.Recv() != expect {
					return false
				}
				expect++
			}
		}
		return c.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
