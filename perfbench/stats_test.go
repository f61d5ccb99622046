package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile modified its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of nothing should be NaN")
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{100, 0.90, true},  // rank 90, 10 beyond
		{100, 0.99, false}, // rank 99, 1 beyond
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}
