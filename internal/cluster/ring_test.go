package cluster

import (
	"testing"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty node name accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate node name accepted")
	}
}

func TestRingLookupShape(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 200; key++ {
		order := r.Lookup(key, 0)
		if len(order) != 3 {
			t.Fatalf("key %d: lookup returned %d nodes, want 3", key, len(order))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("key %d: duplicate node %q in lookup order %v", key, n, order)
			}
			seen[n] = true
		}
		if got := r.Primary(key); got != order[0] {
			t.Fatalf("key %d: Primary %q != Lookup[0] %q", key, got, order[0])
		}
	}
}

func TestRingDeterministic(t *testing.T) {
	r1, _ := NewRing([]string{"a", "b", "c"}, 0)
	r2, _ := NewRing([]string{"c", "a", "b"}, 0) // construction order must not matter
	for key := uint64(0); key < 500; key++ {
		if r1.Primary(key) != r2.Primary(key) {
			t.Fatalf("key %d: primary differs across construction orders: %q vs %q",
				key, r1.Primary(key), r2.Primary(key))
		}
	}
}

// TestRingBalance checks the virtual nodes spread keys roughly evenly:
// with 64 vnodes per node no node should own a wildly disproportionate
// share.
func TestRingBalance(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r, _ := NewRing(names, 0)
	counts := map[string]int{}
	const keys = 4000
	for key := uint64(0); key < keys; key++ {
		counts[r.Primary(key)]++
	}
	for _, n := range names {
		share := float64(counts[n]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %q owns %.1f%% of keys (counts %v), outside [10%%, 45%%]",
				n, 100*share, counts)
		}
	}
}

// TestRingArcStability is the bounded-churn property: removing one node
// from the candidate set (what membership does when a node dies) only
// moves keys whose primary was that node; every other key keeps its
// primary.
func TestRingArcStability(t *testing.T) {
	r, _ := NewRing([]string{"a", "b", "c"}, 0)
	for key := uint64(0); key < 1000; key++ {
		order := r.Lookup(key, 0)
		if order[0] == "b" {
			continue // b's own arc is expected to move
		}
		// Filter b out the way Route does: the first surviving name in
		// ring order must still be the original primary.
		for _, n := range order {
			if n == "b" {
				continue
			}
			if n != order[0] {
				t.Fatalf("key %d: removing b moved primary %q -> %q", key, order[0], n)
			}
			break
		}
	}
}
