package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are statistics.quantiles(values, n=4) from
// Python, whose method the driver of the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
		spread     float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1.0},
		{[]float64{3, 1}, 0.5, 2.0, 3.5, 1.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5, 1.0},
		{[]float64{0.5, 0.52, 0.49, 0.51, 0.9, 0.48, 0.5, 0.53, 0.47, 0.5}, 0.4875, 0.5, 0.5225, 0.07},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		sp, err := spread(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if !near(sp, c.spread) {
			t.Errorf("spread(%v) = %v, want %v", c.in, sp, c.spread)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, _, _, err := quartiles(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quartiles reordered its input: %v", in)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	ds := []time.Duration{3 * time.Microsecond, time.Microsecond, 2 * time.Microsecond}
	if got := durQuantile(ds, 0.5); got != 2 {
		t.Errorf("durQuantile = %v µs, want 2", got)
	}
}

func TestSpreadOfZeroMedianIsInfinite(t *testing.T) {
	sp, err := spread([]float64{-1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sp, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", sp)
	}
}

func TestDigestIsBitExact(t *testing.T) {
	var a, b, c, d digest
	a.add(1.0, math.NaN(), 0.25)
	b.add(1.0, math.NaN(), 0.25)
	c.add(1.0, math.NaN(), math.Nextafter(0.25, 1))
	d.add(1.0, 0.25, math.NaN())
	if a.sum() != b.sum() {
		t.Error("equal sequences digest differently")
	}
	if a.sum() == c.sum() {
		t.Error("a one-ulp change left the digest unchanged")
	}
	if a.sum() == d.sum() {
		t.Error("reordered values digest alike")
	}
	if len(a.sum()) != 16 {
		t.Errorf("digest %q, want 16 hex digits", a.sum())
	}
}

func TestTallyAccounting(t *testing.T) {
	ok := tally{Attempted: 10, Granted: 8, Timeouts: 1, Overloads: 1}
	if err := ok.check(8); err != nil {
		t.Errorf("balanced tally: %v", err)
	}
	if got := ok.failed(); got != 2 {
		t.Errorf("failed = %d, want 2", got)
	}
	if got := ok.failedFrac(); !near(got, 0.2) {
		t.Errorf("failedFrac = %v, want 0.2", got)
	}
	if err := ok.check(7); err == nil {
		t.Error("client/daemon grant mismatch passed the check")
	}
	lost := tally{Attempted: 10, Granted: 8, Errors: 1}
	if err := lost.check(8); err == nil {
		t.Error("an acquire neither granted nor failed passed the check")
	}
	var sum tally
	sum.add(ok)
	sum.add(tally{Attempted: 1, Granted: 1, BadRel: 1})
	if sum.Attempted != 11 || sum.Granted != 9 || sum.failed() != 3 {
		t.Errorf("summed tally = %+v", sum)
	}
	if (tally{}).failedFrac() != 0 {
		t.Error("failedFrac of nothing attempted should be 0")
	}
}

func TestMinMaxRatio(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{10, 10, 10}, 1},
		{[]float64{5, 10}, 0.5},
		{[]float64{0, 7, 3}, 0},
		{[]float64{0, 0}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		if got := minMaxRatio(c.in); !near(got, c.want) {
			t.Errorf("minMaxRatio(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	spans := []span{
		{Start: 0, End: 10},
		{Start: 5, End: 15},
		{Start: 20, End: 30},
		{Start: 22, End: 25},
		{Start: 40, End: -1}, // still open: ignored
	}
	if got := covered(spans, []int{0, 1, 2, 3, 4}); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 1)
	child := tr.begin("child", root, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	sum := tr.summary()
	if sum["root"].Count != 1 || sum["child"].Count != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum["root"].SelfP50 >= sum["child"].P50 {
		t.Errorf("root self time %v not below its child's %v", sum["root"].SelfP50, sum["child"].P50)
	}
	var none *tracer
	if i := none.begin("x", -1, 0); i != -1 {
		t.Errorf("nil tracer begin = %d, want -1", i)
	}
	none.end(0)
}
