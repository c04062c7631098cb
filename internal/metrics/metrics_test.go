package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("Summarize = %+v", s)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{5, 1, 3})
	if s.Median != 3 {
		t.Errorf("Median = %v, want 3", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 || s.Median != 7 {
		t.Errorf("Summarize([7]) = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize sorted the caller's slice")
	}
}

func TestSummarizeInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "barrier"
	s.Add(5, []float64{0.1, 0.2})
	s.Add(10, []float64{0.3})
	xs, ys := s.Means()
	if len(xs) != 2 || xs[0] != 5 || xs[1] != 10 {
		t.Errorf("xs = %v", xs)
	}
	if math.Abs(ys[0]-0.15) > 1e-12 || ys[1] != 0.3 {
		t.Errorf("ys = %v", ys)
	}
}

func TestSummaryString(t *testing.T) {
	if Summarize([]float64{1, 2}).String() == "" {
		t.Error("empty String")
	}
}
