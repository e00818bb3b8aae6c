// Package stats provides the measurement substrate shared by the ICGMM
// simulator: counters, latency accumulators, fixed-precision log-linear
// latency histograms (exact count/sum/min/max/mean; percentiles within 2^-7,
// about 0.8%, over every sample observed), and renderers that print results
// in the same row/series formats as the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio is a hit/total style ratio tracker.
type Ratio struct {
	Hits, Total uint64
}

// Observe records one event, hit or not.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Rate returns hits/total, or 0 when nothing was observed.
func (r *Ratio) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// MissRate returns 1 - Rate() when anything was observed, otherwise 0.
func (r *Ratio) MissRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return 1 - r.Rate()
}

// LatencyAccumulator tracks a running sum/count/min/max of latencies in
// nanoseconds. It is the cheap always-on companion to Histogram.
type LatencyAccumulator struct {
	sum   int64
	count int64
	min   int64
	max   int64
}

// Observe records one latency sample.
func (a *LatencyAccumulator) Observe(ns int64) {
	if a.count == 0 || ns < a.min {
		a.min = ns
	}
	if ns > a.max {
		a.max = ns
	}
	a.sum += ns
	a.count++
}

// ObserveDuration records one latency sample from a time.Duration.
func (a *LatencyAccumulator) ObserveDuration(d time.Duration) {
	a.Observe(d.Nanoseconds())
}

// Count returns the number of samples.
func (a *LatencyAccumulator) Count() int64 { return a.count }

// Sum returns the total of all samples in nanoseconds.
func (a *LatencyAccumulator) Sum() int64 { return a.sum }

// Mean returns the average sample in nanoseconds, or 0 with no samples.
func (a *LatencyAccumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

// MeanDuration returns the mean as a time.Duration.
func (a *LatencyAccumulator) MeanDuration() time.Duration {
	return time.Duration(a.Mean())
}

// Min returns the smallest sample, or 0 with no samples.
func (a *LatencyAccumulator) Min() int64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a *LatencyAccumulator) Max() int64 { return a.max }

// Histogram is a fixed-precision log-linear latency histogram, the integer
// bucketing of HdrHistogram (http://hdrhistogram.org) and DDSketch
// (arXiv:1908.10693). Values below 2^6 ns get one exact bucket each; above
// that a value's bucket is its octave (bits.Len64) plus the next 6 mantissa
// bits, so every bucket midpoint lies within 2^-7 (~0.8%) of every value the
// bucket holds. Values at or above 2^40 ns (~18 minutes) share the top
// bucket. Count, sum, min and max are exact in the accumulator.
//
// The counts slice grows lazily to the highest bucket observed, so a
// histogram of microsecond latencies holds a few hundred counters, and its
// size never depends on how many samples it saw. Observe is one accumulator
// update and one increment; Merge is a vector add, exact and
// order-independent. The zero Histogram is empty and ready to use.
type Histogram struct {
	acc    LatencyAccumulator
	counts []uint64
}

const (
	// subBits is the number of mantissa bits kept below each octave's
	// leading bit: 2^subBits buckets per octave, relative error 2^-(subBits+1).
	subBits  = 6
	subCount = 1 << subBits
	// maxBits caps the bucketed range: values >= 2^maxBits ns go to the top
	// bucket, whose index is the bucket 2^maxBits itself would take.
	maxBits   = 40
	topBucket = (maxBits - subBits + 1) << subBits
)

// bucketIndex maps a latency to its bucket. Negative values (never produced
// by the timing models) share bucket 0 with zero.
func bucketIndex(ns int64) int {
	switch {
	case ns < subCount:
		return int(max(ns, 0))
	case ns >= 1<<maxBits:
		return topBucket
	}
	shift := bits.Len64(uint64(ns)) - subBits - 1
	return shift<<subBits + int(ns>>shift)
}

// bucketMid returns the midpoint of bucket i: the value itself for the exact
// buckets, lower bound plus half the width above them.
func bucketMid(i int) int64 {
	shift := i>>subBits - 1
	if shift <= 0 {
		return int64(i)
	}
	lower := int64(i&(subCount-1)|subCount) << shift
	return lower + 1<<(shift-1)
}

// DefaultLatencyHistogram returns an empty histogram. It covers 0 ns to
// 2^40 ns at 2^-7 relative resolution.
func DefaultLatencyHistogram() *Histogram { return &Histogram{} }

// Observe records one sample in nanoseconds. It allocates only when the
// sample lands above every bucket seen so far.
func (h *Histogram) Observe(ns int64) {
	h.acc.Observe(ns)
	i := bucketIndex(ns)
	if i >= len(h.counts) {
		h.grow(i + 1)
	}
	h.counts[i]++
}

// grow extends counts with zero buckets to length n.
func (h *Histogram) grow(n int) {
	h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
}

// Merge folds other into h. Counts, sum, min and max merge exactly, so
// merging per-shard histograms in any order yields the histogram of the
// concatenated stream, bucket for bucket — the property the serving
// subsystem's determinism contract leans on.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.acc.count == 0 {
		return
	}
	if h.acc.count == 0 || other.acc.min < h.acc.min {
		h.acc.min = other.acc.min
	}
	if other.acc.max > h.acc.max {
		h.acc.max = other.acc.max
	}
	h.acc.sum += other.acc.sum
	h.acc.count += other.acc.count
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// SetRetention is a no-op kept for callers written against the earlier
// sample-retaining histogram (the repository benchmark still calls it):
// the histogram keeps no raw samples, so there is nothing to size.
func (h *Histogram) SetRetention(int) {}

// Reset empties the histogram while keeping its counts slice, so interval
// accumulators (the adaptive controller's per-control-window histograms) can
// be reused without reallocating.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.acc = LatencyAccumulator{}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.acc.Count() }

// Sum returns the exact total of all observed samples in nanoseconds.
func (h *Histogram) Sum() int64 { return h.acc.Sum() }

// Mean returns the mean of observed samples in nanoseconds.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Percentile returns the p-th percentile: the midpoint of the bucket holding
// the sample at rank floor(p/100 * (count-1)), clamped to [min, max], so it
// lies within 2^-7 of that sample below the top bucket. The edges are
// pinned: an empty histogram returns 0, p <= 0 returns the exact minimum,
// p >= 100 the exact maximum, and a NaN p returns 0 (it is a caller bug, but
// an unanswerable query must not panic the metrics path).
func (h *Histogram) Percentile(p float64) int64 {
	switch {
	case h.acc.count == 0 || math.IsNaN(p):
		return 0
	case p <= 0:
		return h.acc.min
	case p >= 100:
		return h.acc.max
	}
	rank := uint64(p / 100 * float64(h.acc.count-1))
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen > rank {
			return min(max(bucketMid(i), h.acc.min), h.acc.max)
		}
	}
	return h.acc.max
}

// Summary is a compact snapshot of a latency distribution.
type Summary struct {
	Count      int64
	Mean       time.Duration
	Min, Max   time.Duration
	P50, P99   time.Duration
	SumNanosec int64
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:      h.acc.Count(),
		Mean:       time.Duration(h.acc.Mean()),
		Min:        time.Duration(h.acc.Min()),
		Max:        time.Duration(h.acc.Max()),
		P50:        time.Duration(h.Percentile(50)),
		P99:        time.Duration(h.Percentile(99)),
		SumNanosec: h.acc.Sum(),
	}
}

// String renders the summary on a single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v p50=%v p99=%v max=%v",
		s.Count, s.Mean, s.Min, s.P50, s.P99, s.Max)
}
