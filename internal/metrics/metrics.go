package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics over a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes summary statistics (population standard deviation).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f med=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Point is one sweep point: an x value (statements, variables, processors,
// ...) with aggregated y statistics.
type Point struct {
	X float64
	Y Summary
}

// Series is a named sequence of sweep points, e.g. the "Barrier Frac."
// curve of figure 15.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point aggregating the sample ys at x.
func (s *Series) Add(x float64, ys []float64) {
	s.Points = append(s.Points, Point{X: x, Y: Summarize(ys)})
}

// Means returns the x and mean-y vectors of the series.
func (s *Series) Means() (xs, ys []float64) {
	for _, p := range s.Points {
		xs = append(xs, p.X)
		ys = append(ys, p.Y.Mean)
	}
	return xs, ys
}
