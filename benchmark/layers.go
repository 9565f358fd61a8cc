package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/channel"
	"repro/internal/cluster"
	"repro/internal/fdtd"
	"repro/internal/grid"
	"repro/internal/gridio"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// perOp repeats batches of f for at least d (and three batches) and
// returns the median over batches of the seconds one call took.  With
// batch 1 that is the p50 of single calls.
func perOp(d time.Duration, batch int, f func()) float64 {
	var samples []float64
	deadline := time.Now().Add(d)
	for len(samples) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(batch))
	}
	return median(samples)
}

// pingPong times one halo plane going from rank 0 to rank 1 and back,
// rank 1 being a goroutine of its own as under the parallel runtime.
// Ownership of the payload travels with the message, as the wire codec
// requires.
func pingPong(tr channel.Transport[mesh.Msg], plane int, d time.Duration) float64 {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m := tr.Chan(0, 1).Recv()
			if len(m.Data) == 0 {
				return
			}
			tr.Chan(1, 0).Send(m)
			tr.Flush(1)
		}
	}()
	m := mesh.Msg{Data: make([]float64, plane)}
	rt := perOp(d, 64, func() {
		tr.Chan(0, 1).Send(m)
		tr.Flush(0)
		m = tr.Chan(1, 0).Recv()
	})
	tr.Chan(0, 1).Send(mesh.Msg{}) // an empty message ends the echo
	tr.Flush(0)
	<-done
	return rt
}

// socketStream times batches of halo planes streamed one way over the
// socket mesh and returns bytes per second.
func socketStream(tr channel.Transport[mesh.Msg], plane int, d time.Duration) float64 {
	const batch = 64
	bufs := make([][]float64, batch)
	for i := range bufs {
		bufs[i] = make([]float64, plane)
	}
	perBatch := perOp(d, 1, func() {
		for _, b := range bufs {
			tr.Chan(0, 1).Send(mesh.Msg{Data: b})
		}
		tr.Flush(0)
		for i := range bufs {
			bufs[i] = tr.Chan(0, 1).Recv().Data // decoded buffers feed the next batch
		}
	})
	return float64(batch*plane*8) / perBatch
}

// exchangeOnly times ghost-plane exchanges of three fields between two
// in-process ranks whose body does nothing else, and returns the
// seconds a rank needs to swap one plane with its neighbour.
func exchangeOnly(spec fdtd.Spec, d time.Duration) (float64, error) {
	const fields, rounds = 3, 200
	slabs := grid.SlabDecompose3(spec.NX, spec.NY, spec.NZ, ranks, grid.AxisX)
	var runErr error
	perRun := perOp(d, 1, func() {
		_, err := mesh.Run(ranks, mesh.Par, mesh.DefaultOptions(), func(c *mesh.Comm) int {
			gs := make([]*grid.G3, fields)
			for i := range gs {
				gs[i] = slabs[c.Rank()].NewLocal3(1)
			}
			for i := 0; i < rounds; i++ {
				c.ExchangeGhostPlanesMulti(grid.AxisX, gs...)
			}
			return 0
		})
		if err != nil {
			runErr = err
		}
	})
	return perRun / (rounds * fields), runErr
}

// post sends body to url and drains the reply.
func post(hc *http.Client, url string, body []byte) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// standaloneLayers measures each layer on its own, a fraction of a
// second apiece, so that every row of a traced budget has an isolated
// number beside it.  spec is the workload's grid for the kernel rate;
// the transport and I/O numbers use the Figure 2 halo plane and grid.
func standaloneLayers(m *metrics, sz sizes, spec fdtd.Spec) error {
	d := sz.layerTime
	rate := fdtd.MeasureKernelRate(spec, fdtd.KernelPencil, 1, d)
	m.add("fdtd.kernel_mcells_per_s", "Mcells/s", rate.CellsPerSec/1e6)
	// Computed from the kernel's array accesses, not measured.
	m.add("fdtd.bytes_per_cell_update", "B", fdtd.KernelBytesPerCell)

	plane := sz.fig2.NY * sz.fig2.NZ
	m.add("channel.inproc_roundtrip_ns", "ns", pingPong(channel.NewChanNet[mesh.Msg](2), plane, d)*1e9)
	sock, err := channel.NewLoopbackMesh[mesh.Msg](2, "unix", mesh.WireCodec(), channel.SocketOptions{})
	if err != nil {
		return err
	}
	m.add("channel.socket_roundtrip_ns", "ns", pingPong(sock, plane, d)*1e9)
	m.add("channel.socket_mb_per_s", "MB/s", socketStream(sock, plane, d)/1e6)
	if err := sock.Close(); err != nil {
		return fmt.Errorf("close socket mesh: %w", err)
	}

	perPlane, err := exchangeOnly(sz.fig2, d)
	if err != nil {
		return err
	}
	m.add("mesh.exchange_ns_per_plane", "ns", perPlane*1e9)

	g := grid.New3(sz.fig2.NX, sz.fig2.NY, sz.fig2.NZ, 0)
	g.FillFunc(func(i, j, k int) float64 { return float64(i) + 0.5*float64(j) - 0.25*float64(k) })
	var file bytes.Buffer
	var ioErr error
	wr := perOp(d, 1, func() {
		file.Reset()
		if err := gridio.Write3(&file, g); err != nil {
			ioErr = err
		}
	})
	rd := perOp(d, 1, func() {
		if _, err := gridio.Read3(bytes.NewReader(file.Bytes())); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return fmt.Errorf("gridio: %w", ioErr)
	}
	mb := float64(file.Len()) / 1e6
	m.add("gridio.write_mb_per_s", "MB/s", mb/wr)
	m.add("gridio.read_mb_per_s", "MB/s", mb/rd)

	// One node behind a coordinator: Submit in-process, then the same
	// cached spec over HTTP, straight to the node and through the hop.
	cl, err := startCluster(1)
	if err != nil {
		return err
	}
	defer cl.stop()
	job := sz.job
	var subErr error
	submit := func(opts serve.SubmitOptions) func() {
		return func() {
			if _, _, err := cl.nodes[0].Submit(job, opts); err != nil {
				subErr = err
			}
		}
	}
	m.add("serve.submit_cold_ms", "ms", perOp(d, 1, submit(serve.SubmitOptions{NoCache: true}))*1e3)
	submit(serve.SubmitOptions{})() // fill the cache
	m.add("serve.submit_hit_us", "us", perOp(d, 256, submit(serve.SubmitOptions{}))*1e6)
	if subErr != nil {
		return fmt.Errorf("serve.Submit: %w", subErr)
	}

	roster := make([]cluster.Node, clusterNodes)
	for i := range roster {
		roster[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), URL: "http://unused"}
	}
	member, err := cluster.NewMembership(roster, cluster.MemberConfig{}, nil)
	if err != nil {
		return err
	}
	var fp uint64
	m.add("cluster.route_ns", "ns", perOp(d, 256, func() {
		fp += 0x9e3779b97f4a7c15
		member.Route(fp)
	})*1e9)

	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	body := encodeRequest(job)
	var postErr error
	via := func(url string) float64 {
		return perOp(d, 1, func() {
			if err := post(hc, url+"/v1/jobs", body); err != nil {
				postErr = err
			}
		})
	}
	direct := via(cl.nodeURL[0])
	hop := via(cl.url) - direct
	if postErr != nil {
		return postErr
	}
	m.add("cluster.hop_us", "us", hop*1e6)
	return nil
}
