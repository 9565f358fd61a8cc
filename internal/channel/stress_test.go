package channel

import (
	"sync"
	"testing"
)

// TestChanStress exercises one Chan from several goroutines at once —
// a writer streaming values, a reader mixing blocking Recv with polled
// TryRecv, and a monitor hammering Len — so the race
// detector can vet the locking (run via `go test -race`).
func TestChanStress(t *testing.T) {
	const n = 5000
	c := NewChan[int]()
	var wg sync.WaitGroup
	wg.Add(2)
	stop := make(chan struct{})

	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c.Send(i)
		}
	}()

	got := make([]int, 0, n)
	go func() {
		defer wg.Done()
		for len(got) < n {
			// Alternate the two receive paths; both must preserve FIFO.
			if len(got)%2 == 0 {
				got = append(got, c.Recv())
			} else if v, ok := c.TryRecv(); ok {
				got = append(got, v)
			}
		}
	}()

	// Monitor goroutine: Len must be safe to call while the channel is
	// in motion.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if l := c.Len(); l < 0 || l > n {
				panic("absurd length")
			}
		}
	}()

	wg.Wait()
	close(stop)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("channel should be drained, Len=%d", c.Len())
	}
}

// TestNetStress runs a full all-pairs exchange on a concurrent network:
// every process sends a token stream to every other and receives all
// streams addressed to it, concurrently.
func TestNetStress(t *testing.T) {
	const p, rounds = 4, 200
	net := NewChanNet[int](p)
	var wg sync.WaitGroup
	wg.Add(p)
	for me := 0; me < p; me++ {
		me := me
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for to := 0; to < p; to++ {
					if to != me {
						net.Chan(me, to).Send(me*1000000 + r)
					}
				}
				for from := 0; from < p; from++ {
					if from == me {
						continue
					}
					v := net.Chan(from, me).Recv()
					if v != from*1000000+r {
						t.Errorf("P%d got %d from P%d in round %d", me, v, from, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if net.Pending() != 0 {
		t.Fatalf("undelivered messages remain: %d", net.Pending())
	}
}
