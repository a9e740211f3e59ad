package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summary is what the result file records for every timing: the
// sample count, the quartiles, and the tail percentile that has at
// least ten samples beyond it (choosing-metrics §1).
type summary struct {
	N    int     `json:"n"`
	P25  float64 `json:"p25"`
	P50  float64 `json:"p50"`
	P75  float64 `json:"p75"`
	P90  float64 `json:"p90"`
	Tail float64 `json:"tail"`
	// TailPct names which percentile Tail is (50 when the sample is
	// too small for anything higher).
	TailPct float64 `json:"tail_pct"`
}

// summarize sorts a copy of xs and returns its summary. Empty input
// yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{
		N:   len(s),
		P25: quantile(s, 0.25),
		P50: quantile(s, 0.50),
		P75: quantile(s, 0.75),
		P90: quantile(s, 0.90),
	}
	out.TailPct = 50
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(100-p)/100 >= 10 {
			out.TailPct = p
			break
		}
	}
	out.Tail = quantile(s, out.TailPct/100)
	return out
}

// quantileOf is quantile over an unsorted sample (0 when empty).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// safeDiv is a/b, or 0 when b is 0: a layer the workload never entered
// reports 0 rather than NaN, which JSON cannot carry.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
