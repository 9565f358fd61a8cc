package explore

import (
	"fmt"

	"repro/internal/trace"
)

// opInfo describes one scheduled operation: who acted (or would act),
// what kind of action, the peer for channel operations, the step tag,
// and — for executed sends/receives — the per-channel operation index
// the explorer's policy counts at pick time.  The pair (channel,
// MsgIdx) names one message stably across every interleaving, because
// the paper's channels are single-reader single-writer FIFOs.
type opInfo struct {
	Rank   int
	Kind   trace.Kind
	Peer   int    // peer rank for Send/Recv, -1 for Step
	Tag    string // step name (message tags are not needed for dependence)
	MsgIdx int    // per-channel op index for executed Send/Recv, -1 otherwise
}

// String renders the op for traces and artifacts.
func (o opInfo) String() string {
	switch o.Kind {
	case trace.Send:
		return fmt.Sprintf("P%d send->P%d msg#%d", o.Rank, o.Peer, o.MsgIdx)
	case trace.Recv:
		return fmt.Sprintf("P%d recv<-P%d msg#%d", o.Rank, o.Peer, o.MsgIdx)
	default:
		return fmt.Sprintf("P%d step %q", o.Rank, o.Tag)
	}
}

// dependent reports whether two operations of *different* processes
// may not be commuted under the given dependence mode.  (Operations of
// the same process are always ordered by program order and the
// explorer never asks about them, but the same-rank case is answered
// conservatively anyway.)
//
// The channel clause is mode-independent: a send and a receive on the
// same channel never commute — the send enables (or changes the
// observable future of) the receive.  Sends on the same channel share
// a writer and receives share a reader (SRSW), so same-channel
// same-direction pairs are same-rank and program-ordered already.
func dependent(mode DepMode, a, b opInfo) bool {
	if a.Rank == b.Rank {
		return true
	}
	if mode == DepFull {
		return true
	}
	if a.Kind == trace.Send && b.Kind == trace.Recv && a.Peer == b.Rank && b.Peer == a.Rank {
		return true
	}
	if b.Kind == trace.Send && a.Kind == trace.Recv && b.Peer == a.Rank && a.Peer == b.Rank {
		return true
	}
	if a.Kind == trace.Step && b.Kind == trace.Step {
		switch mode {
		case DepSteps:
			return true
		case DepStepTags:
			return a.Tag == b.Tag
		}
	}
	return false
}

// conflictKey returns the shared-object key an operation accesses
// under the given mode, or "" when the operation conflicts with
// nothing (and the only ordering it induces is the channel enabling
// edge, handled separately).  Events with equal keys are dependent;
// the race analysis tracks the last access per key.
func conflictKey(mode DepMode, o opInfo) string {
	switch mode {
	case DepChannel:
		return ""
	case DepSteps:
		if o.Kind == trace.Step {
			return "step"
		}
		return ""
	case DepStepTags:
		if o.Kind == trace.Step {
			return "step:" + o.Tag
		}
		return ""
	case DepFull:
		return "all"
	}
	return ""
}

// vclock is a vector clock over process ranks: vc[p] counts the
// actions of process p that happen-before (or are) the clocked event.
type vclock []int

func (v vclock) clone() vclock {
	w := make(vclock, len(v))
	copy(w, v)
	return w
}

// join folds w into v componentwise (v = sup(v, w)).
func (v vclock) join(w vclock) {
	for i, x := range w {
		if x > v[i] {
			v[i] = x
		}
	}
}

// race is a pair of trace indices (i < j) whose operations conflict,
// are performed by different processes, and are NOT ordered by the
// happens-before relation built from everything executed before j —
// i.e. a candidate reversal: some other interleaving runs j's
// operation before i's.
type race struct{ i, j int }

// chanKey identifies one channel.
type chanKey struct{ from, to int }

// analyze walks one executed schedule and returns its racing pairs,
// discovered Flanagan–Godefroid style with one vector clock per
// process, enabling edges joining the k-th receive on a channel to the
// k-th send, and a last-access record per conflict object.  Each
// access to an object is checked against the previous access only:
// races with older accesses are found in the recursively explored
// reversals, which is exactly the laziness that makes DPOR dynamic.
//
// acts[k] must be the k-th executed operation with MsgIdx filled for
// channel operations; p is the process count.
func analyze(acts []opInfo, p int, mode DepMode) []race {
	procVC := make([]vclock, p)
	for i := range procVC {
		procVC[i] = make(vclock, p)
	}
	sendVC := map[chanKey][]vclock{}
	type access struct {
		idx int
		vc  vclock
	}
	lastAcc := map[string]access{}
	var races []race
	for k, act := range acts {
		base := procVC[act.Rank].clone()
		if act.Kind == trace.Recv {
			key := chanKey{from: act.Peer, to: act.Rank}
			sent := sendVC[key]
			if act.MsgIdx < 0 || act.MsgIdx >= len(sent) {
				panic(fmt.Sprintf("explore: recv %v consumes message #%d but only %d sends recorded on P%d->P%d",
					act, act.MsgIdx, len(sent), key.from, key.to))
			}
			base.join(sent[act.MsgIdx])
		}
		obj := conflictKey(mode, act)
		if obj != "" {
			if la, ok := lastAcc[obj]; ok {
				lrank := acts[la.idx].Rank
				// The previous access happens-before this process's
				// prior state iff its clock component is covered; if
				// not, the two accesses could have run in the other
				// order — a race.
				if lrank != act.Rank && la.vc[lrank] > base[lrank] {
					races = append(races, race{i: la.idx, j: k})
				}
				base.join(la.vc) // conflicting accesses are ordered once executed
			}
		}
		base[act.Rank]++
		procVC[act.Rank] = base
		if obj != "" {
			lastAcc[obj] = access{idx: k, vc: base}
		}
		if act.Kind == trace.Send {
			key := chanKey{from: act.Rank, to: act.Peer}
			if act.MsgIdx != len(sendVC[key]) {
				panic(fmt.Sprintf("explore: send %v has op index %d but %d sends recorded on P%d->P%d",
					act, act.MsgIdx, len(sendVC[key]), key.from, key.to))
			}
			sendVC[key] = append(sendVC[key], base)
		}
	}
	return races
}
