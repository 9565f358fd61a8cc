package sched

import (
	"fmt"
	"strconv"
	"strings"
)

// PolicySpec is the compact string form of a scheduling policy, used
// anywhere a policy crosses a process boundary: command-line flags,
// recorded schedule artifacts, and bench labels.  The grammar:
//
//	"lowest"         Lowest
//	"highest"        Highest
//	"rr"             RoundRobin (fair rotation by action count)
//	"alt"            Alternating
//	"lifo"           LIFO (adversarial most-recently-enabled)
//	"rand:SEED"      Random with the given int64 seed
//	"replay:FILE"    Replay of the Schedule JSON at FILE
//
// ParsePolicy and the policies' Spec methods round-trip: for every
// policy p built by ParsePolicy, ParsePolicy(PolicySpec(p)) constructs
// an equivalent policy.

// ParsePolicy builds a fresh policy from its PolicySpec string.  Every
// call returns a new instance, so stateful policies (lifo, rand,
// replay) never share state across runs.
func ParsePolicy(spec string) (Policy, error) {
	switch spec {
	case "lowest":
		return Lowest{}, nil
	case "highest":
		return Highest{}, nil
	case "rr", "round-robin":
		return NewRoundRobin(), nil
	case "alt", "alternating":
		return NewAlternating(), nil
	case "lifo":
		return NewLIFO(), nil
	}
	if arg, ok := strings.CutPrefix(spec, "rand:"); ok {
		seed, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sched: policy spec %q: bad seed: %v", spec, err)
		}
		return NewRandom(seed), nil
	}
	if path, ok := strings.CutPrefix(spec, "replay:"); ok {
		if path == "" {
			return nil, fmt.Errorf("sched: policy spec %q: missing schedule file", spec)
		}
		s, err := LoadSchedule(path)
		if err != nil {
			return nil, fmt.Errorf("sched: policy spec %q: %v", spec, err)
		}
		r, err := s.Policy()
		if err != nil {
			return nil, fmt.Errorf("sched: policy spec %q: %v", spec, err)
		}
		r.path = path
		return r, nil
	}
	return nil, fmt.Errorf("sched: unknown policy spec %q (want lowest|highest|rr|alt|lifo|rand:SEED|replay:FILE)", spec)
}

// PolicySpec returns the spec string of a policy, the inverse of
// ParsePolicy for all policies it can construct.  Policies without a
// spec form fall back to their Name.
func PolicySpec(p Policy) string {
	if s, ok := p.(interface{ Spec() string }); ok {
		return s.Spec()
	}
	return p.Name()
}
