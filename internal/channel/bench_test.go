package channel

import "testing"

func BenchmarkQueueSendRecv(b *testing.B) {
	q := NewQueue[float64]()
	for i := 0; i < b.N; i++ {
		q.Send(float64(i))
		q.Recv()
	}
}

func BenchmarkChanSendRecvSameGoroutine(b *testing.B) {
	c := NewChan[float64]()
	for i := 0; i < b.N; i++ {
		c.Send(float64(i))
		c.Recv()
	}
}

// BenchmarkSocketExchangeSteadyState measures the per-step allocation
// cost of one halo-exchange round over the loopback socket transport:
// two ranks swap one plane-sized message each and flush, like the E/H
// halves of an FDTD step.  Run with -benchmem; allocs/op is the number
// the zero-alloc socket work drives toward the in-process path.
func BenchmarkSocketExchangeSteadyState(b *testing.B) {
	tr, err := NewLoopbackMesh(2, "tcp", intCodec(), SocketOptions{})
	if err != nil {
		b.Fatalf("NewLoopbackMesh: %v", err)
	}
	defer tr.Close()
	// Prime both directions so the coalescers and read buffers reach steady
	// state before measurement.
	for i := 0; i < 4; i++ {
		tr.Chan(0, 1).Send(int64(i))
		tr.Flush(0)
		_ = tr.Chan(0, 1).Recv()
		tr.Chan(1, 0).Send(int64(i))
		tr.Flush(1)
		_ = tr.Chan(1, 0).Recv()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Chan(0, 1).Send(int64(i))
		tr.Flush(0)
		_ = tr.Chan(0, 1).Recv()
		tr.Chan(1, 0).Send(int64(i))
		tr.Flush(1)
		_ = tr.Chan(1, 0).Recv()
	}
}

func BenchmarkChanPingPong(b *testing.B) {
	ab := NewChan[int]()
	ba := NewChan[int]()
	done := make(chan struct{})
	go func() {
		for {
			v := ab.Recv()
			if v < 0 {
				close(done)
				return
			}
			ba.Send(v)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab.Send(i)
		ba.Recv()
	}
	ab.Send(-1)
	<-done
}
