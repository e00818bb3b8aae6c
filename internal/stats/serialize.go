package stats

import (
	"errors"
	"fmt"
)

// This file is the measurement substrate's checkpoint surface: exact,
// JSON-friendly state exports for the accumulators the serving subsystem
// must carry across a pause/resume boundary. Go's encoding/json emits the
// shortest float64 representation that parses back to the identical bits,
// so every exported float round-trips exactly and a restored accumulator is
// indistinguishable from one that was never serialized — the property the
// byte-identical resume contract leans on.

// AccumulatorState is the full state of a LatencyAccumulator.
type AccumulatorState struct {
	Sum   int64 `json:"sum"`
	Count int64 `json:"count"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// State exports the accumulator.
func (a *LatencyAccumulator) State() AccumulatorState {
	return AccumulatorState{Sum: a.sum, Count: a.count, Min: a.min, Max: a.max}
}

// RestoreState replaces the accumulator's contents with the exported state.
func (a *LatencyAccumulator) RestoreState(s AccumulatorState) {
	a.sum, a.count, a.min, a.max = s.Sum, s.Count, s.Min, s.Max
}

// WelfordState is the full state of a Welford accumulator.
type WelfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State exports the accumulator.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// RestoreState replaces the accumulator's contents with the exported state.
func (w *Welford) RestoreState(s WelfordState) {
	w.n, w.mean, w.m2 = s.N, s.Mean, s.M2
}

// HistogramState is the full state of a Histogram: the exact accumulator
// plus the non-zero bucket counts keyed by bucket index. Its size is bounded
// by the bucket range, never by the number of samples observed.
type HistogramState struct {
	Acc    AccumulatorState `json:"acc"`
	Counts map[int]uint64   `json:"counts,omitempty"`
}

// State exports the histogram.
func (h *Histogram) State() HistogramState {
	s := HistogramState{Acc: h.acc.State()}
	for i, c := range h.counts {
		if c > 0 {
			if s.Counts == nil {
				s.Counts = make(map[int]uint64)
			}
			s.Counts[i] = c
		}
	}
	return s
}

// RestoreState replaces the histogram's contents with the exported state.
// A state that no sequence of observations could produce is refused: a
// bucket index outside the bucket range, counts that do not sum to the
// accumulator's count, min above max, or min/max outside the lowest and
// highest non-empty buckets. On error the histogram is left unchanged.
func (h *Histogram) RestoreState(s HistogramState) error {
	a := s.Acc
	if a.Count < 0 || a.Min > a.Max {
		return fmt.Errorf("stats: histogram state with count %d, min %d, max %d", a.Count, a.Min, a.Max)
	}
	var total uint64
	lo, hi := topBucket+1, -1
	for i, c := range s.Counts {
		if i < 0 || i > topBucket {
			return fmt.Errorf("stats: histogram state bucket index %d outside [0, %d]", i, topBucket)
		}
		if c > uint64(a.Count)-total {
			return fmt.Errorf("stats: histogram state bucket counts exceed its sample count %d", a.Count)
		}
		total += c
		if c > 0 {
			lo, hi = min(lo, i), max(hi, i)
		}
	}
	if total != uint64(a.Count) {
		return fmt.Errorf("stats: histogram state bucket counts sum to %d, sample count is %d", total, a.Count)
	}
	if a.Count > 0 && (bucketIndex(a.Min) != lo || bucketIndex(a.Max) != hi) {
		return errors.New("stats: histogram state min/max disagree with its non-empty buckets")
	}
	h.acc.RestoreState(a)
	h.counts = h.counts[:0]
	h.grow(hi + 1)
	for i, c := range s.Counts {
		if c > 0 {
			h.counts[i] = c
		}
	}
	return nil
}
