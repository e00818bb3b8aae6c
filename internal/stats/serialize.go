package stats

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
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

// MarshalJSON encodes the state byte for byte as encoding/json's
// reflection would — fields in declaration order, counts omitted when empty,
// count keys in the sorted order of their decimal strings — but walks the
// counts directly: a checkpoint holds a histogram per tenant cell, and the
// generic map encoder (reflected keys, a string per key, a reflective sort)
// was most of a checkpoint's encode time and garbage.
//
// It calls no encoding/json function itself: a nested Marshal would take a
// second encoder state from encoding/json's pool for every histogram, and
// the pool would end up holding two checkpoint-sized buffers instead of one.
func (s HistogramState) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 96+16*len(s.Counts))
	b = append(b, `{"acc":{"sum":`...)
	b = strconv.AppendInt(b, s.Acc.Sum, 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, s.Acc.Count, 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendInt(b, s.Acc.Min, 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, s.Acc.Max, 10)
	b = append(b, '}')
	if len(s.Counts) > 0 {
		keys := make([]int, 0, len(s.Counts))
		for k := range s.Counts {
			keys = append(keys, k)
		}
		rank := decimalRank()
		slices.SortFunc(keys, func(a, b int) int { return compareDecimal(rank, a, b) })
		b = append(b, `,"counts":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(k), 10)
			b = append(b, '"', ':')
			b = strconv.AppendUint(b, s.Counts[k], 10)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// compareDecimal orders ints as encoding/json orders map keys: by their
// decimal strings ("10" < "9"). Bucket indices compare by their decimalRank
// rank; any other key is formatted.
func compareDecimal(rank []uint16, a, b int) int {
	if a >= 0 && a <= topBucket && b >= 0 && b <= topBucket {
		return int(rank[a]) - int(rank[b])
	}
	return compareFormatted(a, b)
}

// compareFormatted compares the decimal strings of a and b.
func compareFormatted(a, b int) int {
	var ba, bb [20]byte
	return bytes.Compare(strconv.AppendInt(ba[:0], int64(a), 10), strconv.AppendInt(bb[:0], int64(b), 10))
}

// decimalRank maps each bucket index to its position among all bucket
// indices in decimal-string order.
var decimalRank = sync.OnceValue(func() []uint16 {
	idx := make([]int, topBucket+1)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, compareFormatted)
	rank := make([]uint16, topBucket+1)
	for r, i := range idx {
		rank[i] = uint16(r)
	}
	return rank
})

// State exports the histogram.
func (h *Histogram) State() HistogramState {
	s := HistogramState{Acc: h.acc.State()}
	nonEmpty := 0
	for _, c := range h.counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return s
	}
	// Sized up front, the map is built without rehashing as it grows.
	s.Counts = make(map[int]uint64, nonEmpty)
	for i, c := range h.counts {
		if c > 0 {
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
