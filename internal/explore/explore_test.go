package explore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// racy2 is the shared-memory-violation demo: two processes write and
// then read a variable shared behind the scheduler's back.  Under the
// "lowest" continuation the reference schedule runs P0 to completion
// first, so the reference finals are [1 2].  The 2+2 steps admit
// C(4,2) = 6 interleavings, all inequivalent under DepSteps; exactly
// one non-reference interleaving (P1 fully before P0) also reaches
// [1 2], so an exhaustive exploration finds 4 divergences with the two
// distinct outcomes [2 2] and [1 1].
func racy2() []sched.Proc[int, int] {
	shared := 0
	mk := func(me int) sched.Proc[int, int] {
		return func(ctx *sched.Ctx[int]) int {
			ctx.Step("w")
			shared = me + 1
			ctx.Step("r")
			return shared
		}
	}
	return []sched.Proc[int, int]{mk(0), mk(1)}
}

// steps3 is three independent processes with two steps each: no
// communication, no sharing.  Under DepSteps every cross-process step
// pair conflicts, so the reduced space is all 6!/(2!·2!·2!) = 90
// interleavings — and every one reaches the same finals.
func steps3() []sched.Proc[int, int] {
	ps := make([]sched.Proc[int, int], 3)
	for i := range ps {
		ps[i] = func(ctx *sched.Ctx[int]) int {
			ctx.Step("a")
			ctx.Step("b")
			return ctx.ID()
		}
	}
	return ps
}

// exchange2 is the paper's basic exchange idiom: both processes send
// then receive.  Four maximal interleavings exist (the two sends
// commute, the two receives commute), all channel-equivalent.
func exchange2() []sched.Proc[int, int] {
	mk := func() sched.Proc[int, int] {
		return func(ctx *sched.Ctx[int]) int {
			other := 1 - ctx.ID()
			ctx.Send(other, 10+ctx.ID())
			return ctx.Recv(other)
		}
	}
	return []sched.Proc[int, int]{mk(), mk()}
}

// pipeline3 is a 3-stage chain: the enabling edges totally order every
// action, so even DepFull sees a single schedule.
func pipeline3() []sched.Proc[int, int] {
	return []sched.Proc[int, int]{
		func(ctx *sched.Ctx[int]) int { ctx.Send(1, 7); return 0 },
		func(ctx *sched.Ctx[int]) int { v := ctx.Recv(0); ctx.Send(2, v+1); return v },
		func(ctx *sched.Ctx[int]) int { return ctx.Recv(1) },
	}
}

func TestExploreExactCounts(t *testing.T) {
	cases := []struct {
		name        string
		mk          func() []sched.Proc[int, int]
		mode        DepMode
		schedules   int
		divergences int
		determinate bool
	}{
		// Hand-computed: 6 interleavings of w0 r0 w1 r1 respecting
		// program order, 4 of which diverge from the reference [1 2]
		// (the P1-first serialization also lands on [1 2]).
		{"racy2/steps", racy2, DepSteps, 6, 4, false},
		// Hand-computed: channel mode sees no conflicts at all in a
		// channel-free network — one schedule, which hides the race.
		{"racy2/channel", racy2, DepChannel, 1, 0, true},
		// Hand-computed: 6!/(2!·2!·2!) = 90 orderings of three
		// 2-step processes, all reaching the same finals.
		{"steps3/steps", steps3, DepSteps, 90, 0, true},
		// Hand-computed: sends commute, receives commute, so the 4
		// maximal interleavings form 4 full-order classes ...
		{"exchange2/full", exchange2, DepFull, 4, 0, true},
		// ... and a single channel-order class (Theorem 1's reduction).
		{"exchange2/channel", exchange2, DepChannel, 1, 0, true},
		// Enabling edges totally order a chain; even full dependence
		// cannot split a total order.
		{"pipeline3/full", pipeline3, DepFull, 1, 0, true},
		{"pipeline3/channel", pipeline3, DepChannel, 1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.mk, Options[int]{Mode: tc.mode})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Schedules != tc.schedules {
				t.Errorf("Schedules = %d, want %d (%s)", rep.Schedules, tc.schedules, rep.Summary())
			}
			if rep.SleepBlocked != 0 {
				// On fully-dependent relations every executed action
				// wakes every sleeper, so sleep-set blocking is
				// impossible; on the others nothing ever sleeps.
				t.Errorf("SleepBlocked = %d, want 0", rep.SleepBlocked)
			}
			if len(rep.Divergences) != tc.divergences {
				t.Errorf("Divergences = %d, want %d: %v", len(rep.Divergences), tc.divergences, rep.Divergences)
			}
			if rep.Determinate() != tc.determinate {
				t.Errorf("Determinate() = %v, want %v", rep.Determinate(), tc.determinate)
			}
			if rep.Truncated {
				t.Errorf("Truncated = true on an exhaustive run")
			}
		})
	}
}

func TestExploreRacy2Outcomes(t *testing.T) {
	rep, err := Run(racy2, Options[int]{Mode: DepSteps})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Reference != "[1 2]" {
		t.Fatalf("Reference = %q, want %q", rep.Reference, "[1 2]")
	}
	got := map[string]int{}
	for _, d := range rep.Divergences {
		got[d.Outcome]++
	}
	want := map[string]int{"[2 2]": 2, "[1 1]": 2}
	if len(got) != len(want) {
		t.Fatalf("diverging outcomes %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("outcome %q seen %d times, want %d", k, got[k], n)
		}
	}
}

func TestExploreChannelModeFindsNoRacesInExchange(t *testing.T) {
	rep, err := Run(exchange2, Options[int]{Mode: DepChannel})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Races != 0 {
		t.Errorf("Races = %d, want 0: channel order alone never races in a premise-respecting network", rep.Races)
	}
}

func TestExploreMaxSchedulesTruncates(t *testing.T) {
	rep, err := Run(racy2, Options[int]{Mode: DepSteps, MaxSchedules: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Truncated {
		t.Fatalf("Truncated = false with MaxSchedules=2 on a 6-schedule space")
	}
	if rep.Schedules != 2 {
		t.Errorf("Schedules = %d, want exactly 2", rep.Schedules)
	}
	if rep.Determinate() {
		t.Errorf("Determinate() = true on a truncated run")
	}
}

func TestExploreContinuationDoesNotChangeCounts(t *testing.T) {
	for _, cont := range []string{"lowest", "highest", "lifo", "rr", "rand:7"} {
		rep, err := Run(racy2, Options[int]{Mode: DepSteps, Continue: cont})
		if err != nil {
			t.Fatalf("Run(%s): %v", cont, err)
		}
		if rep.Schedules != 6 {
			t.Errorf("cont=%s: Schedules = %d, want 6", cont, rep.Schedules)
		}
		if len(rep.Divergences) != 4 {
			t.Errorf("cont=%s: Divergences = %d, want 4", cont, len(rep.Divergences))
		}
	}
}

// namedOnly is a policy with no spec form, so it cannot name a
// continuation.
type namedOnly struct{}

func (namedOnly) Name() string                  { return "named-only" }
func (namedOnly) Pick(enabled []int, _ int) int { return enabled[0] }

func TestAcrossComparesContinuations(t *testing.T) {
	pols := sched.DefaultPolicies(2)
	reps, err := Across(exchange2, Options[int]{Mode: DepChannel}, pols)
	if err != nil {
		t.Fatalf("exchange2: %v", err)
	}
	for i, r := range reps {
		if r.Continue != sched.PolicySpec(pols[i]) || r.Schedules != 1 {
			t.Errorf("report %d: continue %s, %s", i, r.Continue, r.Summary())
		}
	}
	// DepChannel takes the no-shared-memory premise on trust, so each
	// single exploration of racy2 is "determinate"; only comparing
	// interleavings shows the violation.  lowest runs P0 to completion
	// first ([1 2]); rr alternates the writes before the reads ([2 2]).
	for _, c := range []string{"lowest", "rr"} {
		rep, err := Run(racy2, Options[int]{Mode: DepChannel, Continue: c})
		if err != nil || !rep.Determinate() || rep.Schedules != 1 {
			t.Fatalf("racy2 continue %s: %v %s", c, err, rep.Summary())
		}
	}
	lowestRR := []sched.Policy{sched.Lowest{}, sched.NewRoundRobin()}
	reps, err = Across(racy2, Options[int]{Mode: DepChannel}, lowestRR)
	if err == nil || len(reps) != 2 || !strings.Contains(err.Error(), "different final state") {
		t.Fatalf("racy2 across lowest, rr: want a disagreement, got %v", err)
	}
	// A policy without a spec form cannot continue an exploration.
	if reps, err := Across(racy2, Options[int]{}, []sched.Policy{sched.Lowest{}, namedOnly{}}); err == nil || reps != nil {
		t.Fatalf("policy without a spec: reps %v, err %v", reps, err)
	}
}

func TestExploreRejectsReplayContinuation(t *testing.T) {
	if _, err := Run(racy2, Options[int]{Continue: "replay:foo.json"}); err == nil {
		t.Fatalf("Run accepted a replay continuation")
	}
	if _, err := Run(racy2, Options[int]{Continue: "bogus"}); err == nil {
		t.Fatalf("Run accepted an unparseable continuation")
	}
}

// signature renders the Mazurkiewicz class of one executed schedule:
// per event (identified interleaving-independently by rank and
// program-order occurrence) the vector clock of its causal past in the
// dependence DAG — program order, the per-message enabling edge, and
// same-conflict-object order.  Two interleavings get equal signatures
// iff they order every dependent pair identically.
func signature(acts []opInfo, p int, mode DepMode) string {
	n := len(acts)
	vcs := make([]vclock, n)
	occ := make([]int, p)
	lines := make([]string, 0, n)
	for j, b := range acts {
		vc := make(vclock, n)
		for i := 0; i < j; i++ {
			a := acts[i]
			dep := a.Rank == b.Rank
			if !dep && a.Kind == trace.Send && b.Kind == trace.Recv &&
				a.Rank == b.Peer && a.Peer == b.Rank && a.MsgIdx == b.MsgIdx {
				dep = true
			}
			if !dep {
				if k := conflictKey(mode, a); k != "" && k == conflictKey(mode, b) {
					dep = true
				}
			}
			if dep {
				vc.join(vcs[i])
				vc[i] = 1
			}
		}
		vcs[j] = vc
		lines = append(lines, fmt.Sprintf("P%d#%d:%v:%v", b.Rank, occ[b.Rank], eventID(acts, vc), b.Kind))
		occ[b.Rank]++
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// eventID maps a causal-past bit vector to interleaving-independent
// event identities (rank, occurrence), sorted.
func eventID(acts []opInfo, vc vclock) []string {
	occ := make(map[int]int)
	var ids []string
	for i, a := range acts {
		if vc[i] != 0 {
			ids = append(ids, fmt.Sprintf("P%d#%d", a.Rank, occ[a.Rank]))
		}
		occ[a.Rank]++
	}
	sort.Strings(ids)
	return ids
}

// enumerate runs a depth-first search over every maximal interleaving
// of the network by forcing ever-longer prefixes, returning the
// executed action sequence of each leaf.  Exponential, for tiny
// networks only.
func enumerate(t *testing.T, mk func() []sched.Proc[int, int], mode DepMode) [][]opInfo {
	t.Helper()
	opt := Options[int]{Mode: mode}
	run, err := newRunner(mk, &opt)
	if err != nil {
		t.Fatalf("newRunner: %v", err)
	}
	var all [][]opInfo
	var dfs func(prefix []int)
	dfs = func(prefix []int) {
		rr, err := run(prefix, nil)
		if err != nil {
			t.Fatalf("run(%v): %v", prefix, err)
		}
		if rr.infeasible {
			t.Fatalf("run(%v): infeasible prefix during enumeration", prefix)
		}
		d := len(prefix)
		if d >= len(rr.points) {
			acts := make([]opInfo, len(rr.points))
			for i := range rr.points {
				acts[i] = rr.points[i].act
			}
			all = append(all, acts)
			return
		}
		for _, e := range rr.points[d].enabled {
			dfs(append(append([]int(nil), prefix...), e))
		}
	}
	dfs(nil)
	return all
}

// TestExploreMatchesBruteForceClassCount cross-checks DPOR against an
// independent ground truth: enumerate every maximal interleaving by
// brute force, partition them into Mazurkiewicz classes by dependence
// signature, and require the DPOR schedule count to equal the class
// count exactly — neither missed classes (unsoundness) nor duplicated
// ones (no reduction).
func TestExploreMatchesBruteForceClassCount(t *testing.T) {
	cases := []struct {
		name          string
		mk            func() []sched.Proc[int, int]
		p             int
		mode          DepMode
		interleavings int // sanity check on the enumerator itself
	}{
		{"racy2/steps", racy2, 2, DepSteps, 6},
		{"racy2/channel", racy2, 2, DepChannel, 6},
		{"steps3/steps", steps3, 3, DepSteps, 90},
		{"exchange2/full", exchange2, 2, DepFull, 4},
		{"exchange2/channel", exchange2, 2, DepChannel, 4},
		{"pipeline3/full", pipeline3, 3, DepFull, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaves := enumerate(t, tc.mk, tc.mode)
			if len(leaves) != tc.interleavings {
				t.Fatalf("brute force found %d maximal interleavings, want %d", len(leaves), tc.interleavings)
			}
			classes := map[string]bool{}
			for _, acts := range leaves {
				classes[signature(acts, tc.p, tc.mode)] = true
			}
			rep, err := Run(tc.mk, Options[int]{Mode: tc.mode})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Schedules != len(classes) {
				t.Errorf("DPOR explored %d schedules; brute force counts %d Mazurkiewicz classes", rep.Schedules, len(classes))
			}
		})
	}
}

func TestExploreEmptyNetwork(t *testing.T) {
	rep, err := Run(func() []sched.Proc[int, int] { return nil }, Options[int]{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Schedules != 1 || !rep.Determinate() {
		t.Errorf("empty network: %s", rep.Summary())
	}
}

// TestExploreReportsDeadlock: a network that deadlocks on every
// schedule reaches the same "outcome" everywhere, but it never
// terminates, so Theorem 1 has nothing to certify.  The report must
// say so and name the error.
func TestExploreReportsDeadlock(t *testing.T) {
	deadlock := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(1); ctx.Send(1, v); return v },
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v); return v },
		}
	}
	rep, err := Run(deadlock, Options[int]{Mode: DepFull})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(rep.Err, sched.ErrDeadlock) {
		t.Errorf("Err = %v, want a deadlock", rep.Err)
	}
	if rep.Determinate() {
		t.Errorf("Determinate() = true for a network that always deadlocks: %s", rep.Summary())
	}
	if s := rep.Summary(); !strings.Contains(s, "reference run failed") || !strings.Contains(s, "deadlock") {
		t.Errorf("Summary does not name the failure: %s", s)
	}

	// A truncated summary speaks of the library's bound, not of a
	// command-line flag.
	rep, err = Run(racy2, Options[int]{Mode: DepSteps, MaxSchedules: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := rep.Summary(); !strings.Contains(s, "truncated") || strings.Contains(s, "-max-schedules") {
		t.Errorf("truncated Summary = %q", s)
	}
}

// cell is a result type reached through pointers, as archetype
// programs return them (*fdtd.Result, *ssp.Space).
type cell struct {
	Vals  []float64
	Named map[string]float64
	next  *cell
}

// TestDefaultFingerprintFollowsPointers: each schedule allocates its
// own results, so a fingerprint that prints pointer addresses would
// call equal finals divergent.  A 3-process fan-in under DepFull runs
// several schedules whose finals are all reflect.DeepEqual.
func TestDefaultFingerprintFollowsPointers(t *testing.T) {
	fanIn := func() []sched.Proc[int, *cell] {
		leaf := func(ctx *sched.Ctx[int]) *cell {
			ctx.Send(0, ctx.ID())
			return &cell{Vals: []float64{float64(ctx.ID())}}
		}
		root := func(ctx *sched.Ctx[int]) *cell {
			a, b := ctx.Recv(1), ctx.Recv(2)
			return &cell{Vals: []float64{0.1, float64(a + b)}, Named: map[string]float64{"a": 1, "b": 2}, next: &cell{}}
		}
		return []sched.Proc[int, *cell]{root, leaf, leaf}
	}
	rep, err := Run(fanIn, Options[*cell]{Mode: DepFull})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Schedules < 2 || !rep.Determinate() {
		t.Fatalf("fan-in returning pointers: %s, divergences %v", rep.Summary(), rep.Divergences)
	}
	if strings.Contains(rep.Reference, "0x") {
		t.Errorf("Reference prints an address: %s", rep.Reference)
	}
}

// TestDefaultFingerprintIsDeepAndBitwise pins the default fingerprint's
// two properties: reflect.DeepEqual values render equal, and distinct
// float bit patterns render distinct.
func TestDefaultFingerprintIsDeepAndBitwise(t *testing.T) {
	mk := func(x float64) []*cell {
		m := map[string]float64{}
		for _, k := range []string{"z", "a", "m", "q", "b"} {
			m[k] = float64(len(k))
		}
		n := &cell{Vals: []float64{x, 2}, Named: m}
		n.next = n // a cycle must terminate
		return []*cell{n, nil}
	}
	a, b := mk(0.3), mk(0.3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("test values are not DeepEqual")
	}
	if fa, fb := render(a), render(b); fa != fb {
		t.Errorf("DeepEqual values fingerprint differently:\n%s\n%s", fa, fb)
	}
	for _, y := range []float64{math.Nextafter(0.3, 1), -0.3} {
		if render(a) == render(mk(y)) {
			t.Errorf("%v and %v fingerprint equal", 0.3, y)
		}
	}
	pairs := [][2]float64{
		{0, math.Copysign(0, -1)},
		{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)},
	}
	for _, p := range pairs {
		if render([]float64{p[0]}) == render([]float64{p[1]}) {
			t.Errorf("bits %#x and %#x fingerprint equal", math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
	if got := render([]int{1, 2}); got != "[1 2]" {
		t.Errorf("render([]int{1, 2}) = %q, want %q", got, "[1 2]")
	}
	if render([]any{1}) == render([]any{int64(1)}) {
		t.Error("interface values of different dynamic types fingerprint equal")
	}
}
