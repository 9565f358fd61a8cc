package fault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/sched"
)

// ring builds a token-ring network: rank 0 seeds a token, each rank
// increments and forwards it `rounds` times, final states are the last
// token values — deterministic under every legal interleaving.
func ring(p, rounds int) []sched.Proc[int, int] {
	procs := make([]sched.Proc[int, int], p)
	for i := 0; i < p; i++ {
		i := i
		procs[i] = func(ctx *sched.Ctx[int]) int {
			next, prev := (i+1)%p, (i+p-1)%p
			last := 0
			for r := 0; r < rounds; r++ {
				if i == 0 {
					ctx.Send(next, r*100)
					last = ctx.Recv(prev)
				} else {
					v := ctx.Recv(prev) + 1
					last = v
					ctx.Send(next, v)
				}
			}
			return last
		}
	}
	return procs
}

func TestInjectorFiresExactlyOnce(t *testing.T) {
	in := NewCrash(2, 5)
	// Non-matching coordinates never fire.
	in.Check(2, 4)
	in.Check(1, 5)
	// The match panics with *Crash.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic on match")
			}
			c, ok := r.(*Crash)
			if !ok || c.Rank != 2 || c.Step != 5 {
				t.Fatalf("wrong panic value: %v", r)
			}
		}()
		in.Check(2, 5)
	}()
	// The transient-fault model: a rerun of the same step passes.
	in.Check(2, 5)
}

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	in.Check(0, 0)
}

func TestAsCrashSeesThroughWrapping(t *testing.T) {
	inner := &Crash{Rank: 1, Step: 9}
	err := fmt.Errorf("layer two: %w", fmt.Errorf("layer one: %w", inner))
	c, ok := AsCrash(err)
	if !ok || c != inner {
		t.Fatalf("AsCrash failed through wrapping: %v %v", c, ok)
	}
	if _, ok := AsCrash(errors.New("unrelated")); ok {
		t.Fatal("AsCrash matched an unrelated error")
	}
}

// TestCrashSurfacesThroughSupervisor wires an injector into a process
// body and checks that the supervised runtime converts the panic into
// an error that AsCrash recognises.
func TestCrashSurfacesThroughSupervisor(t *testing.T) {
	in := NewCrash(1, 3)
	procs := make([]sched.Proc[int, int], 2)
	for i := 0; i < 2; i++ {
		i := i
		procs[i] = func(ctx *sched.Ctx[int]) int {
			for step := 0; step < 6; step++ {
				in.Check(i, step)
				ctx.Send(1-i, step)
				ctx.Recv(1 - i)
			}
			return 0
		}
	}
	_, err := sched.RunConcurrent(procs, sched.Options[int]{})
	if err == nil {
		t.Fatal("injected crash vanished")
	}
	c, ok := AsCrash(err)
	if !ok || c.Rank != 1 || c.Step != 3 {
		t.Fatalf("crash not recognisable through the supervisor: %v", err)
	}
}

// TestDelaySendsPreservesDeterminacy: seeded delivery delays perturb
// the real-time interleaving but stay inside the infinite-slack model,
// so the concurrent results are unchanged.
func TestDelaySendsPreservesDeterminacy(t *testing.T) {
	want, err := sched.RunConcurrent(ring(3, 4), sched.Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sched.RunConcurrent(ring(3, 4), sched.Options[int]{
		Transport: DelaySends[int](channel.NewChanNet[int](3), 7, 2*time.Millisecond),
		// Delays must not trip the watchdog on a healthy run.
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delayed run changed the result: %v vs %v", got, want)
	}
}

func TestDelaySendsRejectsBadMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive max accepted")
		}
	}()
	DelaySends[int](channel.NewChanNet[int](1), 1, 0)
}

func TestFlipByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipByte(path, 1); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if b[1] != 2^0xFF || b[0] != 1 {
		t.Fatalf("flip wrong: %v", b)
	}
	// Negative offsets count from the end; flipping twice restores.
	if err := FlipByte(path, -3); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if b[1] != 2 {
		t.Fatalf("double flip did not restore: %v", b)
	}
	if err := FlipByte(path, 99); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	if err := FlipByte(path, -99); err == nil {
		t.Fatal("out-of-range negative offset accepted")
	}
}

func TestTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Truncate(path, -3); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if st.Size() != 7 {
		t.Fatalf("size %d after dropping 3 of 10", st.Size())
	}
	if err := Truncate(path, 2); err != nil {
		t.Fatal(err)
	}
	st, _ = os.Stat(path)
	if st.Size() != 2 {
		t.Fatalf("size %d after truncating to 2", st.Size())
	}
	if err := Truncate(path, 99); err == nil {
		t.Fatal("growing truncation accepted")
	}
	if err := Truncate(path, -99); err == nil {
		t.Fatal("over-truncation accepted")
	}
}

func TestCancellerNilAndUnarmed(t *testing.T) {
	var c *Canceller
	c.Check(0, 0) // nil receiver must be inert
	if c.Err() != nil {
		t.Fatal("nil canceller reports a reason")
	}
	c = NewCanceller()
	c.Check(1, 2) // unarmed must not panic
	if c.Err() != nil {
		t.Fatalf("unarmed canceller reports %v", c.Err())
	}
}

func TestCancellerFirstReasonWins(t *testing.T) {
	c := NewCanceller()
	first := errors.New("deadline exceeded")
	c.Cancel(first)
	c.Cancel(errors.New("drain"))
	if !errors.Is(c.Err(), first) {
		t.Fatalf("reason %v, want the first cancel", c.Err())
	}
}

func TestCancellerCheckPanicsTyped(t *testing.T) {
	c := NewCanceller()
	reason := errors.New("job timeout")
	c.Cancel(reason)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed Check did not panic")
		}
		cc, ok := r.(*Cancelled)
		if !ok {
			t.Fatalf("panic value %T, want *Cancelled", r)
		}
		if cc.Rank != 2 || cc.Step != 7 {
			t.Fatalf("cancelled at rank=%d step=%d, want 2/7", cc.Rank, cc.Step)
		}
		if !errors.Is(cc, reason) {
			t.Fatal("Cancelled does not unwrap to the reason")
		}
		if got, ok := AsCancelled(fmt.Errorf("wrapped: %w", cc)); !ok || got != cc {
			t.Fatal("AsCancelled failed through a wrapping layer")
		}
	}()
	c.Check(2, 7)
}
