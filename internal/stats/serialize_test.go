package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestHistogramStateRoundTrip: State/RestoreState must reproduce the
// histogram exactly — accumulator and every bucket count — and survive a
// JSON round trip, since the serving checkpoint ships the state as JSON.
func TestHistogramStateRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	h := DefaultLatencyHistogram()
	for i := 0; i < 5000; i++ {
		h.Observe(int64(rng.ExpFloat64() * 2e5))
	}
	h.Observe(3) // exact bucket

	data, err := json.Marshal(h.State())
	if err != nil {
		t.Fatal(err)
	}
	var st HistogramState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored := DefaultLatencyHistogram()
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), h.State()) {
		t.Fatal("state round trip not exact")
	}
	if restored.Count() != h.Count() || restored.Sum() != h.Sum() {
		t.Errorf("count/sum diverged: %d/%d vs %d/%d", restored.Count(), restored.Sum(), h.Count(), h.Sum())
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if restored.Percentile(p) != h.Percentile(p) {
			t.Errorf("p%.0f diverged after restore", p)
		}
	}
	// The restored histogram continues exactly like the original.
	h.Observe(12345)
	restored.Observe(12345)
	if !reflect.DeepEqual(restored.State(), h.State()) {
		t.Error("restored histogram diverged on the next observation")
	}

	// States no observation sequence produces are rejected, leaving the
	// target untouched.
	acc := AccumulatorState{Sum: 300, Count: 2, Min: 100, Max: 200}
	lo, hi := bucketIndex(100), bucketIndex(200)
	bad := map[string]HistogramState{
		"negative bucket":       {Acc: acc, Counts: map[int]uint64{-1: 1, hi: 1}},
		"bucket past the top":   {Acc: acc, Counts: map[int]uint64{lo: 1, topBucket + 1: 1}},
		"counts short of count": {Acc: acc, Counts: map[int]uint64{lo: 1}},
		"counts over count":     {Acc: acc, Counts: map[int]uint64{lo: 1, hi: 2}},
		"counts wrap uint64":    {Acc: acc, Counts: map[int]uint64{lo: 3, hi: math.MaxUint64}},
		"negative count":        {Acc: AccumulatorState{Count: -1}},
		"min above max":         {Acc: AccumulatorState{Sum: 300, Count: 2, Min: 200, Max: 100}, Counts: map[int]uint64{lo: 1, hi: 1}},
		"min off its bucket":    {Acc: AccumulatorState{Sum: 300, Count: 2, Min: 50, Max: 200}, Counts: map[int]uint64{lo: 1, hi: 1}},
		"max off its bucket":    {Acc: AccumulatorState{Sum: 300, Count: 2, Min: 100, Max: 900}, Counts: map[int]uint64{lo: 1, hi: 1}},
	}
	for name, st := range bad {
		target := DefaultLatencyHistogram()
		target.Observe(7)
		before := target.State()
		if err := target.RestoreState(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(target.State(), before) {
			t.Errorf("%s: rejected state modified the histogram", name)
		}
	}
	good := HistogramState{Acc: acc, Counts: map[int]uint64{lo: 1, hi: 1}}
	if err := DefaultLatencyHistogram().RestoreState(good); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

// TestAccumulatorWelfordStateRoundTrip covers the two scalar accumulators'
// exports.
func TestAccumulatorWelfordStateRoundTrip(t *testing.T) {
	t.Parallel()
	var a LatencyAccumulator
	var w Welford
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*1e4 + 5e4
		a.Observe(int64(v))
		w.Observe(v)
	}
	var a2 LatencyAccumulator
	a2.RestoreState(a.State())
	if a2 != a {
		t.Errorf("accumulator round trip: %+v vs %+v", a2, a)
	}
	var w2 Welford
	w2.RestoreState(w.State())
	if w2 != w {
		t.Errorf("welford round trip: %+v vs %+v", w2, w)
	}
	if w2.Mean() != w.Mean() || w2.Std() != w.Std() {
		t.Error("welford statistics diverged")
	}
}

// TestHistogramStateMarshalMatchesReflection: HistogramState's hand-written
// encoder emits exactly the bytes encoding/json's reflection emits for the
// same fields — for empty states, histograms whose buckets span one- to
// four-digit indices, and maps with keys no histogram produces.
func TestHistogramStateMarshalMatchesReflection(t *testing.T) {
	t.Parallel()
	type reflected struct {
		Acc    AccumulatorState `json:"acc"`
		Counts map[int]uint64   `json:"counts,omitempty"`
	}
	check := func(name string, s HistogramState) {
		t.Helper()
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(reflected(s))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: encoded\n%s\nreflection encodes\n%s", name, got, want)
		}
	}
	check("zero", HistogramState{})
	check("empty map", HistogramState{Counts: map[int]uint64{}})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		h := DefaultLatencyHistogram()
		for i := 0; i < 2000; i++ {
			// Log-uniform over 1 ns .. 2^42 ns: every bucket range from
			// the exact low buckets to the top one.
			h.Observe(int64(math.Exp2(rng.Float64() * 42)))
		}
		check("observed", h.State())
	}
	check("foreign keys", HistogramState{Acc: AccumulatorState{Sum: -5, Count: 10, Min: -9, Max: 4}, Counts: map[int]uint64{
		-12: 1, -3: 2, 0: 3, 7: 4, 10: 5, 99: 6, topBucket: 7, topBucket + 1: 8, 123456789: 9, math.MinInt64: 10,
	}})
}
