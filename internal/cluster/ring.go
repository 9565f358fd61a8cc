// Package cluster shards archetype jobs across a set of archserve
// nodes: a consistent-hash ring routes each spec fingerprint to a
// stable primary node (so the node-side result caches shard for free),
// a health-checked membership layer tracks which nodes may serve
// (healthy → suspect → dead → rejoining), and a coordinator fronts the
// whole thing behind the same /v1/jobs API a single node exposes.
//
// Determinacy (Theorem 1) is what makes the cluster correct rather
// than merely available: any node may serve any job — cached or
// recomputed — bitwise-identically, so failover, retry and degraded
// placement never change an answer, only where it was produced.  The
// chaos tests assert exactly that: cluster answers == single-node
// answers == mesh.Sim, even with a node SIGKILLed mid-burst.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is the virtual-node count per physical node: enough
// points that each node's share of the keyspace concentrates near 1/N,
// few enough that ring construction and lookup stay trivial.
const defaultVNodes = 64

// Ring is a consistent-hash ring over node names.  It is immutable
// after construction: node failure is handled by filtering candidates
// against membership state, not by mutating the ring.  That choice is
// what bounds churn to the affected arcs — a key whose primary is
// alive routes exactly as before no matter which other nodes die, and
// when a dead node rejoins its arcs (and its still-warm result cache)
// come back verbatim.
type Ring struct {
	points []ringPoint // sorted by hash
	names  []string
}

type ringPoint struct {
	hash uint64
	node int // index into names
}

// NewRing builds a ring with vnodes points per node (0 uses the
// default).  Node names must be non-empty and unique.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{names: append([]string(nil), names...)}
	for i, name := range r.names {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(name, v), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// pointHash places one virtual node on the ring.  The splitmix
// finalizer matters: raw FNV digests of short, similar strings
// ("a#0" … "a#63") disperse poorly in the high bits, which skews node
// shares badly; finalizing restores near-uniform placement.
func pointHash(name string, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", name, vnode)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: it decorrelates the key space
// (spec fingerprints, themselves FNV digests) from the ring points so
// structured fingerprint patterns cannot alias onto one arc.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Lookup returns up to n distinct node names in ring order starting at
// the key's arc: element 0 is the key's primary, the rest are its
// failover replicas.  n <= 0 (or n > nodes) returns every node.
func (r *Ring) Lookup(key uint64, n int) []string {
	if n <= 0 || n > len(r.names) {
		n = len(r.names)
	}
	h := mix64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.names[p.node])
		}
	}
	return out
}

// Primary returns the key's primary node.
func (r *Ring) Primary(key uint64) string { return r.Lookup(key, 1)[0] }

// Nodes returns the ring's node names in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.names...) }
