package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile (nearest rank) of the samples; it
// sorts a copy, so parallel sample slices stay index-aligned.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// medianOf is the median of f over xs: a run's value for one metric, given
// its passes or trials.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// topPercentile returns the highest of the reporting percentiles that still
// has at least ten samples beyond it, as (label, value); beyond that a
// percentile is a handful of outliers, not a measurement.
func topPercentile(sorted []float64) (string, float64) {
	label, q := "p50", 0.50
	for _, c := range []struct {
		label string
		q     float64
	}{{"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	return label, sortedQuantile(sorted, q)
}

// toFloats converts nanosecond samples to the given unit (ns per unit).
func toFloats(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}
