// Package stats provides the small statistical estimators used by every
// experiment in the repository: streaming mean/variance (Welford), min/max
// tracking, fixed-bucket histograms, counters and time series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddN incorporates an observation with integer weight n >= 0.
func (w *Welford) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		w.Add(x)
	}
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns the running total of all observations.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Var returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 with no observations).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 with no observations).
func (w *Welford) Max() float64 { return w.max }

// Merge folds other into w, as if every observation of other had been Added.
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	mean := w.mean + d*float64(other.n)/float64(n)
	m2 := w.m2 + other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	min, max := w.min, w.max
	if other.min < min {
		min = other.min
	}
	if other.max > max {
		max = other.max
	}
	*w = Welford{n: n, mean: mean, m2: m2, min: min, max: max}
}

// String renders mean ± stddev [min, max] (n).
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.4g [%.4g, %.4g] (n=%d)", w.Mean(), w.StdDev(), w.min, w.max, w.n)
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi). Values outside
// the range are clamped into the first/last bucket and counted separately.
type Histogram struct {
	Lo, Hi  float64
	buckets []int64
	under   int64
	over    int64
	w       Welford
}

// NewHistogram creates a histogram with n equal-width buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.w.Add(x)
	i := int(float64(len(h.buckets)) * (x - h.Lo) / (h.Hi - h.Lo))
	switch {
	case i < 0:
		h.under++
		i = 0
	case i >= len(h.buckets):
		h.over++
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.w.N() }

// Mean returns the mean of all observations (unclamped values).
func (h *Histogram) Mean() float64 { return h.w.Mean() }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Outliers returns how many observations fell below Lo and at/above Hi.
func (h *Histogram) Outliers() (under, over int64) { return h.under, h.over }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) from the
// bucket midpoints. Exact for values that fall inside the range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.w.N() == 0 {
		return 0
	}
	target := int64(q * float64(h.w.N()))
	if target >= h.w.N() {
		target = h.w.N() - 1
	}
	var cum int64
	width := (h.Hi - h.Lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return h.Lo + (float64(i)+0.5)*width
		}
	}
	return h.Hi
}

// Series is an (x, y) series collected during a run, e.g. link utilization
// sampled over time. Points stay in insertion order.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// MeanY returns the mean of the Y values.
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	sum := 0.0
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}

// MinMaxY returns the extreme Y values (0, 0 for an empty series).
func (s *Series) MinMaxY() (min, max float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	min, max = s.Y[0], s.Y[0]
	for _, y := range s.Y[1:] {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	return min, max
}

// Crossings counts how many times the series crosses the level y = level,
// a cheap oscillation detector used by the Figure 1 experiment.
func (s *Series) Crossings(level float64) int {
	n := 0
	for i := 1; i < len(s.Y); i++ {
		a, b := s.Y[i-1]-level, s.Y[i]-level
		if (a < 0 && b >= 0) || (a >= 0 && b < 0) {
			n++
		}
	}
	return n
}

// Percentile returns the p-th percentile (0-100) of ys by sorting a copy.
func Percentile(ys []float64, p float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	c := append([]float64(nil), ys...)
	sort.Float64s(c)
	idx := p / 100 * float64(len(c)-1)
	lo := int(idx)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := idx - float64(lo)
	return c[lo]*(1-frac) + c[lo+1]*frac
}

// Counter is a named monotonically increasing count.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Addn adds n.
func (c *Counter) Addn(n int64) { c.n += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Rate returns the count divided by an elapsed duration in seconds.
func (c *Counter) Rate(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(c.n) / seconds
}
