package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestHistogramMergePropertyRandom is the randomized merge contract: over
// 1000 random partitionings and merge orders, folding per-shard histograms
// into an aggregate is order-independent and exact — the property the
// serving subsystem's deterministic partition-order merges and the
// controller's interval measurements both lean on.
func TestHistogramMergePropertyRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 1000; iter++ {
		nParts := 1 + rng.Intn(6)
		samples := make([][]int64, nParts)
		var wantSum int64
		total := 0
		for p := range samples {
			n := rng.Intn(200)
			samples[p] = make([]int64, n)
			for i := range samples[p] {
				// Cover the exact buckets through the top bucket.
				v := int64(rng.Intn(1 << uint(2+rng.Intn(30))))
				if rng.Intn(50) == 0 {
					v = 1<<maxBits + rng.Int63n(1<<maxBits)
				}
				samples[p][i] = v
				wantSum += v
			}
			total += n
		}

		build := func(order []int) *Histogram {
			agg := DefaultLatencyHistogram()
			for _, p := range order {
				h := DefaultLatencyHistogram()
				for _, v := range samples[p] {
					h.Observe(v)
				}
				agg.Merge(h)
			}
			return agg
		}

		fwd := make([]int, nParts)
		for i := range fwd {
			fwd[i] = i
		}
		shuffled := append([]int(nil), fwd...)
		rng.Shuffle(nParts, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		a, b := build(fwd), build(shuffled)
		if a.Count() != int64(total) || b.Count() != int64(total) {
			t.Fatalf("iter %d: count %d/%d, want %d", iter, a.Count(), b.Count(), total)
		}
		if a.Sum() != wantSum || b.Sum() != wantSum {
			t.Fatalf("iter %d: sum %d/%d, want %d (merge must be exactly sum-preserving)", iter, a.Sum(), b.Sum(), wantSum)
		}
		if a.acc != b.acc {
			t.Fatalf("iter %d: accumulators differ across merge orders: %+v vs %+v", iter, a.acc, b.acc)
		}
		if !slices.Equal(a.counts, b.counts) {
			t.Fatalf("iter %d: bucket counts differ across merge orders", iter)
		}
		for _, p := range []float64{0, -1, 1, 50, 90, 99, 100, 101} {
			if a.Percentile(p) != b.Percentile(p) {
				t.Fatalf("iter %d: p%v differs across merge orders: %d vs %d",
					iter, p, a.Percentile(p), b.Percentile(p))
			}
		}
		if a.Percentile(math.NaN()) != 0 || b.Percentile(math.NaN()) != 0 {
			t.Fatalf("iter %d: Percentile(NaN) must be 0", iter)
		}
	}
}

// TestHistogramMergeMatchesDirectObserve: merging shards equals observing
// the concatenated stream directly — accumulator and every bucket — for any
// split.
func TestHistogramMergeMatchesDirectObserve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 1000; iter++ {
		n := rng.Intn(300)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(1 << 28))
		}
		direct := DefaultLatencyHistogram()
		for _, v := range vals {
			direct.Observe(v)
		}
		merged := DefaultLatencyHistogram()
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			h := DefaultLatencyHistogram()
			for _, v := range vals[lo:hi] {
				h.Observe(v)
			}
			merged.Merge(h)
			lo = hi
		}
		if direct.acc != merged.acc {
			t.Fatalf("iter %d: merged accumulator %+v != direct %+v", iter, merged.acc, direct.acc)
		}
		if !slices.Equal(direct.counts, merged.counts) {
			t.Fatalf("iter %d: merged buckets differ from direct observation", iter)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	t.Parallel()
	h := DefaultLatencyHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 100)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Percentile(99) != 0 {
		t.Fatalf("reset left state: count=%d sum=%d", h.Count(), h.Sum())
	}
	for i, c := range h.counts {
		if c != 0 {
			t.Fatalf("reset left bucket %d = %d", i, c)
		}
	}
	h.Observe(500)
	if h.Count() != 1 || h.Sum() != 500 {
		t.Fatal("histogram unusable after reset")
	}
}

// TestHistogramBucketBoundaries pins the bucket layout at its seams: exact
// buckets below 2^subBits, continuity into the first log-linear octave, the
// last bucket below 2^maxBits, and the top bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	t.Parallel()
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {63, 63}, {64, 64}, {127, 127},
		{128, 128}, {129, 128}, {130, 129},
		{1<<maxBits - 1, topBucket - 1}, {1 << maxBits, topBucket}, {math.MaxInt64, topBucket},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Below the top bucket every value sits within 2^-7 of its bucket's
	// midpoint, and bucket indices never decrease with the value.
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = 1 + rng.Int63n(1<<maxBits-1)
	}
	slices.Sort(vals)
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d decreased from %d", v, i, prev)
		}
		prev = i
		if err := math.Abs(float64(bucketMid(i)-v)) / float64(v); err > 1.0/128 {
			t.Fatalf("value %d: bucket %d midpoint %d off by %.5f", v, i, bucketMid(i), err)
		}
	}
}

// TestHistogramPercentileBound is the accuracy contract on random streams of
// up to 1e6 samples: every Percentile(p) lies within
// [s_lo*(1-2^-7), s_hi*(1+2^-7)], s_lo and s_hi being the exact order
// statistics around rank p/100*(n-1).
func TestHistogramPercentileBound(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2024))
	dists := []struct {
		name string
		draw func() int64
	}{
		// Service times around 20 us with a heavy right shoulder.
		{"lognormal", func() int64 { return int64(math.Exp(10 + 0.8*rng.NormFloat64())) }},
		// Cache hits at ~300 ns and SSD misses at ~80 us.
		{"bimodal", func() int64 {
			if rng.Intn(4) == 0 {
				return int64(80_000 + 5_000*rng.NormFloat64())
			}
			return int64(300 + 20*rng.NormFloat64())
		}},
		// Pareto tail (alpha 1.2) from 1 us, reaching the top bucket.
		{"pareto", func() int64 {
			return int64(math.Min(1000*math.Pow(1-rng.Float64(), -1/1.2), 1<<62))
		}},
	}
	ps := []float64{0, 0.1, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 99.99, 100}
	const e = 1.0 / 128
	for _, d := range dists {
		for _, n := range []int{1, 2, 3, 17, 1000, 100_000, 1_000_000} {
			h := DefaultLatencyHistogram()
			s := make([]int64, n)
			for i := range s {
				s[i] = d.draw()
				h.Observe(s[i])
			}
			slices.Sort(s)
			for _, p := range append(ps, 100*rng.Float64()) {
				r := p / 100 * float64(n-1)
				lo, hi := s[int(math.Floor(r))], s[int(math.Ceil(r))]
				if lo >= 1<<maxBits {
					continue // the top bucket answers with the clamped midpoint, unbounded
				}
				got := h.Percentile(p)
				if float64(got) < float64(lo)*(1-e) || float64(got) > float64(hi)*(1+e) {
					t.Errorf("%s n=%d: p%v = %d outside [%d, %d] +-2^-7", d.name, n, p, got, lo, hi)
				}
			}
		}
	}
}

// TestHistogramLongRunNotPrefixBiased: after 1e6 samples whose distribution
// shifts at the 10% mark, p50 and p99 describe the whole run, not the
// prefix (a retained-sample reservoir answered from the first 65,536).
func TestHistogramLongRunNotPrefixBiased(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	const n = 1_000_000
	h := DefaultLatencyHistogram()
	all := make([]int64, n)
	for i := range all {
		v := int64(1_000 + rng.Intn(200)) // warm-up: ~1 us hits
		if i >= n/10 {
			v = int64(100_000 + rng.Intn(50_000)) // shifted: ~100-150 us
		}
		all[i] = v
		h.Observe(v)
	}
	slices.Sort(all)
	for _, p := range []float64{50, 99} {
		want := all[int(p/100*(n-1))]
		got := h.Percentile(p)
		if d := math.Abs(float64(got-want)) / float64(want); d > 1.0/128 {
			t.Errorf("p%v = %d, whole-run exact %d (rel err %.4f)", p, got, want, d)
		}
		if got < 100_000 {
			t.Errorf("p%v = %d reflects the 1 us warm-up prefix", p, got)
		}
	}
}

// TestHistogramObserveAllocs: once the counts slice spans the observed
// range, Observe, Merge and Reset allocate nothing.
func TestHistogramObserveAllocs(t *testing.T) {
	h := DefaultLatencyHistogram()
	h.Observe(1 << 30)
	other := DefaultLatencyHistogram()
	other.Observe(12_345)
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		v = (v*7919 + 13) % (1 << 30)
		h.Observe(v)
	}); n != 0 {
		t.Errorf("Observe allocated %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Merge(other); h.Reset() }); n != 0 {
		t.Errorf("Merge+Reset allocated %.1f times per call", n)
	}
}

// TestHistogramSizeIndependentOfSamples: the counts slice is bounded by the
// highest bucket observed — a few hundred counters for microsecond
// latencies — however many samples arrive.
func TestHistogramSizeIndependentOfSamples(t *testing.T) {
	t.Parallel()
	h := DefaultLatencyHistogram()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200_000; i++ {
		h.Observe(1_000 + rng.Int63n(99_000))
	}
	if want := bucketIndex(h.acc.max) + 1; len(h.counts) != want || want > 1000 {
		t.Fatalf("microsecond histogram holds %d counters, want %d (< 1000)", len(h.counts), want)
	}
	before := len(h.counts)
	for i := 0; i < 200_000; i++ {
		h.Observe(1_000 + rng.Int63n(99_000))
	}
	if len(h.counts) != before {
		t.Fatalf("counts grew from %d to %d on same-range samples", before, len(h.counts))
	}
}
