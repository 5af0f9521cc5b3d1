package main

import (
	"math"
	"sort"
)

// Recorder keeps raw duration samples (nanoseconds) and reports exact
// quantiles of what it kept. The program's own histograms bucket by
// powers of two, which cannot resolve a 10% change; this one sorts.
//
// Up to limit samples are kept verbatim. Past that it keeps a uniform
// reservoir (Vitter's algorithm R), so memory stays bounded however long
// a run is, and Count still reports every sample offered. A Recorder is
// owned by one goroutine; merge per-worker recorders after they stop.
type Recorder struct {
	samples []float64
	seen    uint64
	limit   int
	rng     uint64
	sorted  bool
}

// NewRecorder returns a recorder that keeps at most limit samples; seed
// fixes which samples the reservoir keeps once it is full.
func NewRecorder(limit int, seed uint64) *Recorder {
	if limit < 1 {
		limit = 1
	}
	return &Recorder{limit: limit, rng: seed | 1}
}

// Add records one sample.
func (r *Recorder) Add(ns float64) {
	r.seen++
	r.sorted = false
	if len(r.samples) < r.limit {
		r.samples = append(r.samples, ns)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(r.limit) {
		r.samples[j] = ns
	}
}

// Merge appends o's kept samples. Merged reservoirs weight each source
// by what it kept, which is exact while neither overflowed and otherwise
// fair for workers that ran the same loop for the same time.
func (r *Recorder) Merge(o *Recorder) {
	r.samples = append(r.samples, o.samples...)
	r.seen += o.seen
	r.sorted = false
}

// Count returns how many samples were offered.
func (r *Recorder) Count() uint64 { return r.seen }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the kept samples,
// interpolating linearly between the two closest ranks (the estimator
// numpy and R call type 7). It returns NaN when nothing was recorded.
func (r *Recorder) Quantile(q float64) float64 {
	n := len(r.samples)
	if n == 0 {
		return math.NaN()
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	return quantileSorted(r.samples, q)
}

// quantileSorted is the type-7 quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the median of vs (NaN for none) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	return quantileSorted(c, 0.5)
}
