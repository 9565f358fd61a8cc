// Package fsum provides floating-point summation algorithms and
// order-sensitivity analysis.
//
// The paper's far-field parallelization reordered a double sum (over
// time steps and surface points) on the assumption that floating-point
// addition could be treated as associative; the experiment showed the
// assumption false for data "rang[ing] over many orders of magnitude"
// (footnote 2).  This package reproduces that effect — block-reordered
// sums of wide-dynamic-range data diverge from the sequential sum — and
// provides the standard remedies (compensated and pairwise summation,
// deterministic ordered combining) used by the repository's "fixed"
// far-field implementation.
package fsum

import (
	"math"
	"math/rand"
	"sort"
)

// Naive returns the left-to-right sum of xs — the order the sequential
// program uses.
func Naive(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Blocked sums xs the way the paper's parallelization does: partition
// into p contiguous blocks (as the mesh archetype distributes the
// integration surface), sum each block independently, then combine the
// block sums left to right.  The result is a pure reordering of the
// sequential sum — and therefore not generally equal to it.
func Blocked(xs []float64, p int) float64 {
	if p <= 0 {
		panic("fsum: block count must be positive")
	}
	if p > len(xs) && len(xs) > 0 {
		p = len(xs)
	}
	partials := BlockPartials(xs, p)
	return Naive(partials)
}

// BlockPartials returns the p per-block partial sums of xs (contiguous
// blocks, balanced sizes), i.e. what each simulated process would
// compute locally before the combining reduction.
func BlockPartials(xs []float64, p int) []float64 {
	if len(xs) == 0 {
		return make([]float64, p)
	}
	partials := make([]float64, p)
	base, extra := len(xs)/p, len(xs)%p
	lo := 0
	for i := 0; i < p; i++ {
		sz := base
		if i < extra {
			sz++
		}
		partials[i] = Naive(xs[lo : lo+sz])
		lo += sz
	}
	return partials
}

// TreeCombine combines partial sums pairwise in a binary tree, the
// order a recursive-doubling reduction produces: at each round, element
// i receives element i+stride.  len(partials) need not be a power of
// two.
func TreeCombine(partials []float64) float64 {
	if len(partials) == 0 {
		return 0
	}
	work := make([]float64, len(partials))
	copy(work, partials)
	for stride := 1; stride < len(work); stride *= 2 {
		for i := 0; i+stride < len(work); i += 2 * stride {
			work[i] += work[i+stride]
		}
	}
	return work[0]
}

// Pairwise returns the pairwise (cascade) sum of xs, whose error grows
// as O(log n) rather than O(n).
func Pairwise(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return Pairwise(xs[:mid]) + Pairwise(xs[mid:])
}

// Kahan returns the compensated sum of xs (Kahan's algorithm).
func Kahan(xs []float64) float64 {
	s, c := 0.0, 0.0
	for _, x := range xs {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// Neumaier returns the improved compensated sum of xs (Neumaier's
// variant, robust when summands exceed the running sum).
func Neumaier(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s, c := 0.0, 0.0
	for _, x := range xs {
		t := s + x
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}

// SortedByMagnitude sums xs from smallest to largest absolute value —
// the classical accuracy-improving ordering for same-sign data (small
// terms accumulate before they can be absorbed by large partial sums).
// The input is not modified.
func SortedByMagnitude(xs []float64) float64 {
	ys := make([]float64, len(xs))
	copy(ys, xs)
	sort.Slice(ys, func(i, j int) bool { return math.Abs(ys[i]) < math.Abs(ys[j]) })
	return Naive(ys)
}

// Permuted sums xs in a random order drawn from rng — an arbitrary
// reordering rather than the structured block reordering.
func Permuted(xs []float64, rng *rand.Rand) float64 {
	perm := rng.Perm(len(xs))
	s := 0.0
	for _, i := range perm {
		s += xs[i]
	}
	return s
}

// WideRange generates n values whose magnitudes span the given number
// of decades, alternating sign — a synthetic stand-in for the paper's
// far-field summands, which "ranged over many orders of magnitude".
func WideRange(n int, decades float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		mag := math.Pow(10, float64(rng.Float64()*decades)-decades/2)
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		out[i] = mag * (0.5 + rng.Float64())
	}
	return out
}

// Narrow generates n values of comparable magnitude (one decade),
// for which reordering is comparatively harmless — the near-field
// analogue.
func Narrow(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Float64()*9) + 1
	}
	return out
}

// Sensitivity measures order sensitivity of a dataset: it computes the
// sequential sum, the block-reordered sums for each process count in
// ps, and k random permutations, and returns the maximum relative
// deviation from the sequential sum.
type SensitivityReport struct {
	Sequential  float64
	BlockSums   map[int]float64 // process count -> blocked sum
	MaxRelDev   float64         // max |sum' - seq| / max(|seq|, tiny)
	Reference   float64         // Neumaier high-accuracy reference
	SeqRelError float64         // |seq - ref| / max(|ref|, tiny)
}

// Sensitivity analyses xs as described on SensitivityReport.
func Sensitivity(xs []float64, ps []int, k int, rng *rand.Rand) SensitivityReport {
	rep := SensitivityReport{
		Sequential: Naive(xs),
		BlockSums:  map[int]float64{},
		Reference:  Neumaier(xs),
	}
	scale := math.Max(math.Abs(rep.Sequential), 1e-300)
	update := func(s float64) {
		d := math.Abs(s-rep.Sequential) / scale
		if d > rep.MaxRelDev {
			rep.MaxRelDev = d
		}
	}
	for _, p := range ps {
		s := Blocked(xs, p)
		rep.BlockSums[p] = s
		update(s)
	}
	for i := 0; i < k; i++ {
		update(Permuted(xs, rng))
	}
	refScale := math.Max(math.Abs(rep.Reference), 1e-300)
	rep.SeqRelError = math.Abs(rep.Sequential-rep.Reference) / refScale
	return rep
}
