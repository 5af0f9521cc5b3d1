package main

import (
	"math"
	"sort"
	"testing"
)

// sortQuantile is the reference: a full sort and the type-7 estimator
// written out independently of the recorder.
func sortQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

func TestRecorderMatchesFullSort(t *testing.T) {
	rng := stream(42, 0)
	var xs []float64
	r := NewRecorder(1<<20, 1)
	for i := 0; i < 10001; i++ {
		// Heavy-tailed, like latencies: mostly small, a few huge.
		x := float64(rng.next()%1000) + 1
		if rng.next()%100 == 0 {
			x *= 1000
		}
		xs = append(xs, x)
		r.Add(x)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := r.Quantile(q), sortQuantile(xs, q); math.Abs(got-want) > 1e-9*want {
			t.Errorf("q=%v: recorder %v, full sort %v", q, got, want)
		}
	}
	if r.Count() != uint64(len(xs)) {
		t.Errorf("Count = %d, want %d", r.Count(), len(xs))
	}
}

func TestRecorderKnownValues(t *testing.T) {
	r := NewRecorder(1000, 1)
	for i := 100; i >= 1; i-- { // out of order on purpose
		r.Add(float64(i))
	}
	for q, want := range map[float64]float64{0: 1, 0.5: 50.5, 0.99: 99.01, 1: 100} {
		if got := r.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("q=%v of 1..100 = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(NewRecorder(10, 1).Quantile(0.5)) {
		t.Error("an empty recorder must report NaN, not a number")
	}
}

func TestRecorderReservoirStaysUniform(t *testing.T) {
	const n = 1_000_000
	r := NewRecorder(20000, 7)
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if r.Count() != n {
		t.Fatalf("Count = %d, want %d", r.Count(), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := r.Quantile(q), q*(n-1); math.Abs(got-want) > 0.02*want {
			t.Errorf("q=%v over a full reservoir = %v, want %v ±2%%", q, got, want)
		}
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := NewRecorder(100, 1), NewRecorder(100, 2)
	var all []float64
	for i := 0; i < 50; i++ {
		a.Add(float64(i))
		b.Add(float64(100 + i))
		all = append(all, float64(i), float64(100+i))
	}
	a.Merge(b)
	if got, want := a.Quantile(0.5), sortQuantile(all, 0.5); got != want {
		t.Errorf("merged median %v, want %v", got, want)
	}
	if a.Count() != 100 {
		t.Errorf("merged Count = %d, want 100", a.Count())
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	vs := []float64{3, 1, 2, 10}
	if got := median(vs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if vs[0] != 3 || vs[3] != 10 {
		t.Errorf("median reordered its input: %v", vs)
	}
}
