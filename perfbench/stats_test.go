package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9, 7, 2}, 1.625, 3.5, 8.0},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(120 - i)
	}
	p90 := percentile(xs, 90)
	if p90 != 108 {
		t.Errorf("p90 of 1..120 = %v, want 108 (nearest rank)", p90)
	}
	if n := beyond(xs, p90); n != 12 {
		t.Errorf("%d samples beyond p90, want 12", n)
	}
	if got := percentile([]float64{5, 7}, 90); got != 7 {
		t.Errorf("p90 of two samples = %v, want the larger", got)
	}
	if got := percentile([]float64{5, 7}, 50); got != 5 {
		t.Errorf("p50 of two samples = %v, want the smaller by nearest rank", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "replay", Parent: -1, Start: 0, End: 100},
		{Name: "route.route_all", Parent: 0, Start: 10, End: 50},
		{Name: "place.place", Parent: 0, Start: 50, End: 60},
		{Name: "route.route_all", Parent: 0, Start: 60, End: 90},
		{Name: "layout.split", Parent: 3, Start: 70, End: 80},
	}
	self := selfTimes(spans)
	want := map[string]int64{"replay": 20, "route.route_all": 60, "place.place": 10, "layout.split": 10}
	for name, w := range want {
		if int64(self[name]) != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	vals, wall, unattributed := layerTimes(spans)
	if wall*1e9 != 100 || unattributed*1e9 != 20 {
		t.Errorf("wall %v, unattributed %v; want 100ns, 20ns", wall, unattributed)
	}
	if got := vals["route.route_all_s"] * 1e9; math.Abs(got-60) > 1e-6 {
		t.Errorf("route.route_all_s = %v ns, want 60", got)
	}
}
