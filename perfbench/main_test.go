package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func TestSpecsValidateForRecordedSeeds(t *testing.T) {
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		if err := serveSingleSpec(seed).Validate(); err != nil {
			t.Errorf("seed %d: serve-single: %v", seed, err)
		}
		if _, err := serveTenantsSpec(seed); err != nil {
			t.Errorf("seed %d: serve-tenants: %v", seed, err)
		}
		if err := gridServeSpec(seed).Validate(); err != nil {
			t.Errorf("seed %d: paper-grid serve replay: %v", seed, err)
		}
		if err := gridOptions(seed, gridWorkers).Config.Validate(); err != nil {
			t.Errorf("seed %d: paper-grid: %v", seed, err)
		}
	}
}

func TestSpecsDeriveFromSeed(t *testing.T) {
	a, b := serveSingleSpec(defaultSeed), serveSingleSpec(heldOutSeed)
	if a.Train.Seed == b.Train.Seed || a.Workload.Seed == b.Workload.Seed {
		t.Fatal("serve-single seeds do not follow --seed")
	}
	if c := serveSingleSpec(defaultSeed); c.Train.Seed != a.Train.Seed || c.Workload.Seed != a.Workload.Seed {
		t.Fatal("serve-single seeds are not a pure function of --seed")
	}
	ta, _ := serveTenantsSpec(defaultSeed)
	tb, _ := serveTenantsSpec(heldOutSeed)
	for i := range ta.Tenants {
		if ta.Tenants[i].Seed == tb.Tenants[i].Seed {
			t.Fatalf("tenant %d seed does not follow --seed", i)
		}
	}
}

func TestTailKeepsTenSamplesBeyondTheCut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) // ties included
		}
		v, pct, beyond := tail(xs)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		if n <= tailBeyond {
			if v != s[n-1] || pct != 100 || beyond != 0 {
				t.Fatalf("n=%d: got (%v, %v, %d), want the maximum", n, v, pct, beyond)
			}
			continue
		}
		if beyond != tailBeyond || v != s[n-1-tailBeyond] {
			t.Fatalf("n=%d: got (%v, %d beyond), want rank %d", n, v, beyond, n-1-tailBeyond)
		}
		// No higher percentile keeps ten samples past it.
		if wantPct := 100 * float64(n-tailBeyond) / float64(n); pct != wantPct {
			t.Fatalf("n=%d: percentile %v, want %v", n, pct, wantPct)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median %v", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metric names, units,
// directions and bounds in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range doc.EndToEnd {
		h := endToEnd[i]
		if d.Name != h.Name || d.Unit != h.Unit || d.Better != h.Better || d.Bound != h.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, here %+v", i, d, h)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range doc.PerLayer {
		h := perLayer[i]
		if d.Name != h.Name || d.Unit != h.Unit || d.Better != h.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, here %+v", i, d, h)
		}
	}
}
