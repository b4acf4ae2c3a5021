package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(xs, n=4), the definition the spread of a
// metric across runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 11}, 2, 7, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.93, 1.01, 0.99, 1.05, 0.97, 1.2}, 0.96, 1.0, 1.0875},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := iqr(c.xs); !near(got, c.q3-c.q1) {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.q3-c.q1)
		}
		if got := median(c.xs); !near(got, c.m) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
	}
	if q1, m, q3 := quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, m, q3)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestGeomeanAndNearestRank(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	// The serve harness's nearest rank: index int(0.99*200) = 198 of the
	// sorted values 1..200.
	if got := nearestRank(xs, 0.99); got != 199 {
		t.Errorf("nearestRank p99 = %v, want 199", got)
	}
}
