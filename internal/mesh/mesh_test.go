package mesh

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fsum"
	"repro/internal/machine"
	"repro/internal/sched"
)

var bothModes = []Mode{Sim, Par}

func TestRunRanksAndModes(t *testing.T) {
	for _, mode := range bothModes {
		res, err := Run(4, mode, DefaultOptions(), func(c *Comm) int {
			return c.Rank()*10 + c.P()
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := []int{4, 14, 24, 34}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%v: res = %v", mode, res)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(0, Sim, DefaultOptions(), func(c *Comm) int { return 0 }); err == nil {
		t.Fatal("p=0 should error")
	}
	if _, err := Run(2, Mode(99), DefaultOptions(), func(c *Comm) int { return 0 }); err == nil {
		t.Fatal("bad mode should error")
	}
}

func TestModeString(t *testing.T) {
	if Sim.String() != "simulated-parallel" || Par.String() != "parallel" {
		t.Fatal("mode names")
	}
	if Mode(7).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, mode := range bothModes {
		for _, p := range []int{1, 2, 3, 5, 8} {
			res, err := Run(p, mode, DefaultOptions(), func(c *Comm) int {
				c.Barrier()
				c.Barrier()
				return 1
			})
			if err != nil {
				t.Fatalf("%v p=%d: %v", mode, p, err)
			}
			if len(res) != p {
				t.Fatalf("res = %v", res)
			}
		}
	}
}

func TestBroadcastScalar(t *testing.T) {
	for _, mode := range bothModes {
		for _, p := range []int{1, 2, 3, 4, 7} {
			for root := 0; root < p; root++ {
				res, err := Run(p, mode, DefaultOptions(), func(c *Comm) float64 {
					v := float64(c.Rank() + 100)
					return c.Broadcast(v, root)
				})
				if err != nil {
					t.Fatalf("%v p=%d root=%d: %v", mode, p, root, err)
				}
				for i, v := range res {
					if v != float64(root+100) {
						t.Fatalf("%v p=%d root=%d: proc %d got %v", mode, p, root, i, v)
					}
				}
			}
		}
	}
}

func TestBroadcastVec(t *testing.T) {
	res, err := Run(5, Sim, DefaultOptions(), func(c *Comm) []float64 {
		vals := []float64{float64(c.Rank()), float64(c.Rank() * 2), -1}
		return c.BroadcastVec(vals, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, -1}
	for i, v := range res {
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("proc %d: %v", i, v)
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	_, err := Run(2, Sim, DefaultOptions(), func(c *Comm) float64 {
		defer func() { recover() }()
		return c.Broadcast(1, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceExactData(t *testing.T) {
	for _, alg := range []ReduceAlg{RecursiveDoubling, AllToOne} {
		for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
			for _, p := range []int{1, 2, 3, 4, 5, 8, 9} {
				res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) float64 {
					return c.AllReduceAlg(float64(c.Rank()+1), op, alg)
				})
				if err != nil {
					t.Fatalf("%v/%s p=%d: %v", alg, op.Name, p, err)
				}
				// Sequential fold in rank order.
				want := 1.0
				for i := 2; i <= p; i++ {
					want = op.F(want, float64(i))
				}
				for i, v := range res {
					if v != want {
						t.Fatalf("%v/%s p=%d: proc %d got %v want %v", alg, op.Name, p, i, v, want)
					}
				}
			}
		}
	}
}

func TestAllReduceVecElementwise(t *testing.T) {
	for _, alg := range []ReduceAlg{RecursiveDoubling, AllToOne} {
		res, err := Run(4, Par, DefaultOptions(), func(c *Comm) []float64 {
			vals := []float64{float64(c.Rank()), 1, float64(-c.Rank())}
			return c.AllReduceVecAlg(vals, OpSum, alg)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{6, 4, -6}
		for i, v := range res {
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("%v: proc %d got %v", alg, i, v)
			}
		}
	}
}

func TestAllToOneMatchesSequentialPartialOrder(t *testing.T) {
	// The all-to-one reduction combines partials in rank order — the
	// same order as fsum.Naive over the block partials.  This is the
	// property the "fixed" far-field implementation relies on.
	rng := rand.New(rand.NewSource(2))
	xs := fsum.WideRange(4096, 14, rng)
	for _, p := range []int{2, 4, 8} {
		partials := fsum.BlockPartials(xs, p)
		res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) float64 {
			return c.AllReduceAlg(partials[c.Rank()], OpSum, AllToOne)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := fsum.Naive(partials)
		for i, v := range res {
			if v != want {
				t.Fatalf("p=%d proc %d: %v != %v", p, i, v, want)
			}
		}
	}
}

func TestReductionAlgorithmsAgreeOnExactDisagreeOnWide(t *testing.T) {
	// On exact integer data the two algorithms must agree; on wide-
	// range data their different combination orders generally differ —
	// the mechanism behind the paper's far-field divergence.
	run := func(p int, vals []float64, alg ReduceAlg) float64 {
		res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) float64 {
			return c.AllReduceAlg(vals[c.Rank()], OpSum, alg)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	exact := []float64{1, 2, 3, 4, 5, 6, 7}
	if run(7, exact, RecursiveDoubling) != run(7, exact, AllToOne) {
		t.Fatal("algorithms must agree on exact data")
	}
	rng := rand.New(rand.NewSource(4))
	found := false
	for trial := 0; trial < 20 && !found; trial++ {
		wide := fsum.WideRange(7, 16, rng)
		if run(7, wide, RecursiveDoubling) != run(7, wide, AllToOne) {
			found = true
		}
	}
	if !found {
		t.Fatal("expected the combination orders to differ on some wide-range data")
	}
}

func TestSimAndParBitwiseIdentical(t *testing.T) {
	// A mini bulk-synchronous program mixing work, reductions, and
	// broadcasts: by Theorem 1, Sim and Par must agree bitwise.
	prog := func(c *Comm) []float64 {
		x := float64(c.Rank()+1) * 1.7
		out := make([]float64, 0, 6)
		for step := 0; step < 3; step++ {
			c.Work(10)
			x = x*1.1 + float64(step)
			sum := c.AllReduce(x, OpSum)
			max := c.AllReduce(x, OpMax)
			x += sum / (max + 2)
			g := c.Broadcast(x, step%c.P())
			out = append(out, sum, g)
		}
		return out
	}
	sim, err := Run(5, Sim, DefaultOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		par, err := Run(5, Par, DefaultOptions(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sim, par) {
			t.Fatalf("rep %d: Sim and Par diverged:\n%v\n%v", rep, sim, par)
		}
	}
}

func TestArbitraryPoliciesAgree(t *testing.T) {
	prog := func(c *Comm) float64 {
		v := float64(c.Rank())
		v = c.AllReduce(v*1.25, OpSum)
		c.Barrier()
		return c.Broadcast(v+float64(c.Rank()), 1)
	}
	ref, err := Run(4, Sim, DefaultOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range sched.DefaultPolicies(6) {
		got, err := sched.RunControlled(Procs(4, DefaultOptions(), prog), pol, sched.Options[Msg]{})
		if err != nil {
			t.Fatalf("policy %s: %v", pol.Name(), err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("policy %s diverged", pol.Name())
		}
	}
}

func TestProfileRecordsWorkAndMessages(t *testing.T) {
	prof := machine.NewProfile(3)
	opt := DefaultOptions()
	opt.Profile = prof
	_, err := Run(3, Sim, opt, func(c *Comm) int {
		c.Work(5)
		c.AllReduce(1, OpSum)
		c.Work(2)
		c.Barrier()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := prof.Totals()
	if tot.Work != 21 {
		t.Fatalf("Work = %v, want 21", tot.Work)
	}
	if tot.Messages == 0 {
		t.Fatal("no messages recorded")
	}
	if tot.Phases != 2 {
		t.Fatalf("Phases = %d, want 2", tot.Phases)
	}
	m := machine.IBMSP()
	if m.Time(prof) <= 0 {
		t.Fatal("model time should be positive")
	}
	opt.Profile = machine.NewProfile(2)
	if _, err := Run(3, Sim, opt, func(c *Comm) int { return 0 }); err == nil {
		t.Fatal("a profile sized for 2 processes accepted a 3-process run")
	}
}

func TestReduceAlgString(t *testing.T) {
	if RecursiveDoubling.String() != "recursive-doubling" || AllToOne.String() != "all-to-one" {
		t.Fatal("alg names")
	}
	if ReduceAlg(9).String() == "" {
		t.Fatal("unknown alg should render")
	}
}

func TestCombineAffectsMessageCountNotResult(t *testing.T) {
	mkOpt := func(combine bool, prof *machine.Profile) Options {
		o := DefaultOptions()
		o.Combine = combine
		o.Profile = prof
		return o
	}
	run := func(combine bool) (float64, int) {
		prof := machine.NewProfile(4)
		res, err := Run(4, Sim, mkOpt(combine, prof), func(c *Comm) float64 {
			// Reduction of a 2-vector plus a broadcast; message count
			// differences come from ghost exchanges, tested in
			// gridops_test; here combined and uncombined must agree.
			v := c.AllReduceVecAlg([]float64{float64(c.Rank()), 2}, OpSum, c.Options().ReduceAlg)
			return v[0] + v[1]
		})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], prof.Totals().Messages
	}
	a, _ := run(true)
	b, _ := run(false)
	if a != b {
		t.Fatal("combine flag must not change results")
	}
}
