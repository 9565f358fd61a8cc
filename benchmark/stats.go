package main

import (
	"math"
	"sort"
)

// summary is how every sampled quantity is reported: median, quartiles
// and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile of an ascending sample by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// maxOf is the largest element, 0 for an empty sample.
func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (an idle layer divides nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named number.  Sample is set when Value is the median
// of a sample taken inside the run.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Value  float64  `json:"value"`
	Sample *summary `json:"sample,omitempty"`
}

// metrics is an ordered metric list.
type metrics []metric

func (ms *metrics) add(name, unit string, v float64) {
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: v})
}

// addSample records the median of xs under name, keeping the quartiles
// and the count.
func (ms *metrics) addSample(name, unit string, xs []float64) {
	s := summarize(xs)
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: s.Median, Sample: &s})
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
