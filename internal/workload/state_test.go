package workload

import (
	"testing"

	"repro/internal/trace"
)

// stateTestGen builds a small custom generator for stream-state tests.
func stateTestGen(t *testing.T, name string, pages uint64) Generator {
	t.Helper()
	g, err := NewCustom(CustomConfig{
		Name:       name,
		TotalPages: pages,
		Clusters:   []ClusterSpec{{CenterPage: pages / 4, Spread: 10}, {CenterPage: pages / 2, Spread: 15}},
		WriteFrac:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOpenLoopStateRoundTrip: exporting a stream's state mid-flight and
// restoring it into a freshly built stream must reproduce the exact
// remaining record sequence — including across segment boundaries and the
// working-set shift (with and without a generator swap).
func TestOpenLoopStateRoundTrip(t *testing.T) {
	t.Parallel()
	cases := map[string]OpenLoopConfig{
		"plain": {RatePerSec: 1e6, Seed: 7, SegmentLen: 512},
		"burst": {RatePerSec: 1e6, BurstAmp: 0.4, BurstPeriod: 300, Seed: 3, SegmentLen: 512},
		"offset shift": {RatePerSec: 1e6, Seed: 5, SegmentLen: 512,
			ShiftAfter: 700, ShiftOffsetPages: 1 << 20},
	}
	gen := func(t *testing.T) Generator { return stateTestGen(t, "state-ws", 2048) }
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, cut := range []int{0, 100, 512, 900, 1500} {
				orig, err := NewOpenLoop(gen(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]trace.Record, cut)
				orig.Next(buf)
				st := orig.State()
				want := make([]trace.Record, 400)
				orig.Next(want)

				fresh, err := NewOpenLoop(gen(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				if got := fresh.Emitted(); got != uint64(cut) {
					t.Fatalf("cut %d: restored Emitted = %d", cut, got)
				}
				got := make([]trace.Record, 400)
				fresh.Next(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cut %d: record %d differs after restore: %+v vs %+v", cut, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestOpenLoopStateShiftTo covers the generator-swap drift: a restore landing
// after the swap must rebuild the in-flight segment from the ShiftTo
// generator, not the base one.
func TestOpenLoopStateShiftTo(t *testing.T) {
	t.Parallel()
	mk := func(t *testing.T) OpenLoopConfig {
		return OpenLoopConfig{
			RatePerSec: 1e6, Seed: 11, SegmentLen: 256,
			ShiftAfter: 400, ShiftOffsetPages: 1 << 18,
			ShiftTo: stateTestGen(t, "grown-ws", 4096),
		}
	}
	for _, cut := range []int{0, 399, 400, 401, 700} {
		orig, err := NewOpenLoop(stateTestGen(t, "base-ws", 512), mk(t))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]trace.Record, cut)
		orig.Next(buf)
		st := orig.State()
		want := make([]trace.Record, 300)
		orig.Next(want)

		fresh, err := NewOpenLoop(stateTestGen(t, "base-ws", 512), mk(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		got := make([]trace.Record, 300)
		fresh.Next(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: record %d differs after restore", cut, i)
			}
		}
	}
}

// TestOpenLoopRestoreStateRejects pins the restore error paths.
func TestOpenLoopRestoreStateRejects(t *testing.T) {
	t.Parallel()
	ol, err := NewOpenLoop(stateTestGen(t, "r-ws", 512), OpenLoopConfig{RatePerSec: 1e6, SegmentLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]OpenLoopState{
		"cursor without segment": {Seg: 0, Pos: 5},
		"cursor past segment":    {Seg: 1, Pos: 129},
		"negative cursor":        {Seg: 1, Pos: -1},
		"missing shift-to":       {Seg: 1, Pos: 4, BufShifted: true},
	}
	for name, st := range bad {
		if err := ol.RestoreState(st); err == nil {
			t.Errorf("%s: accepted %+v", name, st)
		}
	}
	if ol.Name() == "" {
		t.Error("stream lost its generator name")
	}
}

// TestMuxStateRoundTrip: a mux restored from mid-flight state must reproduce
// the exact remaining merged sequence, stream tags included.
func TestMuxStateRoundTrip(t *testing.T) {
	t.Parallel()
	mk := func(t *testing.T) *Mux {
		t.Helper()
		a, err := NewOpenLoop(stateTestGen(t, "mux-a", 512), OpenLoopConfig{RatePerSec: 2e4, Seed: 1, SegmentLen: 256})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewOpenLoop(stateTestGen(t, "mux-b", 256), OpenLoopConfig{
			RatePerSec: 1e4, Seed: 2, SegmentLen: 256,
			ShiftAfter: 300, ShiftOffsetPages: 1 << 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMux([]MuxStream{{Stream: a}, {Stream: b, OffsetPages: 1 << 14}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, cut := range []int{0, 77, 500, 1000} {
		orig := mk(t)
		buf := make([]MuxRecord, cut)
		orig.Next(buf)
		st := orig.State()
		want := make([]MuxRecord, 400)
		orig.Next(want)

		fresh := mk(t)
		if err := fresh.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if fresh.Emitted() != uint64(cut) {
			t.Fatalf("cut %d: restored Emitted = %d", cut, fresh.Emitted())
		}
		got := make([]MuxRecord, 400)
		fresh.Next(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: merged record %d differs after restore: %+v vs %+v", cut, i, got[i], want[i])
			}
		}
	}

	// Stream-count mismatches are rejected.
	orig := mk(t)
	st := orig.State()
	st.Heads = st.Heads[:1]
	if err := mk(t).RestoreState(st); err == nil {
		t.Error("accepted a state with a missing head")
	}
	st = orig.State()
	st.Streams = append(st.Streams, OpenLoopState{})
	if err := mk(t).RestoreState(st); err == nil {
		t.Error("accepted a state with an extra stream")
	}
}
