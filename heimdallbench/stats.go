package main

import (
	"sort"
	"time"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs (nearest rank on the sorted
// copy); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q*float64(len(s)) + 0.5)
	if idx > 0 {
		idx--
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// us converts durations to microseconds.
func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
