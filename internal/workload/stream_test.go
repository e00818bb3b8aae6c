package workload

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// richCustom exercises every cursor of the mixture machine: phases, a Zipf
// tail, a steady scan, periodic bursts and page repeats.
func richCustom(t *testing.T, name string) Generator {
	t.Helper()
	g, err := NewCustom(CustomConfig{
		Name:       name,
		TotalPages: 4096,
		Clusters: []ClusterSpec{
			{CenterPage: 500, Spread: 40}, {CenterPage: 2000, Spread: 90}, {CenterPage: 3500, Spread: 25},
		},
		PhaseWeights: [][]float64{{4, 1, 1}, {1, 4, 1}, {1, 1, 4}},
		PhaseLen:     173,
		TailFrac:     0.2,
		TailZipfS:    1.3,
		ScanFrac:     0.05,
		ScanStride:   3,
		BurstEvery:   211,
		BurstLen:     17,
		PageRepeat:   3,
		WriteFrac:    0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// streamGenerators is every registry generator plus richCustom.
func streamGenerators(t *testing.T) []Generator {
	return append(Registry(), richCustom(t, "rich"))
}

// TestGenerateEqualsStreamPulls: Generate(n, seed) is exactly the first n
// pulls of the seed's stream, and a shorter Generate is a prefix of a longer
// one — the property that lets an open-loop stream stop mid-segment and
// resume by skipping.
func TestGenerateEqualsStreamPulls(t *testing.T) {
	t.Parallel()
	const n = 5000
	for _, g := range streamGenerators(t) {
		for _, seed := range []int64{1, 42} {
			tr := g.Generate(n, seed)
			s := g.stream(seed)
			for i, want := range tr {
				if got := s.next(); got != want {
					t.Fatalf("%s seed %d: pull %d = %+v, Generate has %+v", g.Name(), seed, i, got, want)
				}
			}
			short := g.Generate(n/3, seed)
			for i := range short {
				if short[i] != tr[i] {
					t.Fatalf("%s seed %d: Generate(%d) is not a prefix of Generate(%d) at %d", g.Name(), seed, n/3, n, i)
				}
			}
		}
	}
}

// TestOpenLoopEqualsGeneratedSegments: an open-loop stream's pages and ops
// are the concatenation of Generate(SegmentLen, DeriveSeed(Seed, k)) for
// k = 0, 1, ... — the segment definition, with records pulled one at a time.
func TestOpenLoopEqualsGeneratedSegments(t *testing.T) {
	t.Parallel()
	const segLen, segs = 300, 4
	for _, g := range streamGenerators(t) {
		cfg := OpenLoopConfig{RatePerSec: 1e6, Seed: 9, SegmentLen: segLen}
		ol, err := NewOpenLoop(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]trace.Record, segLen*segs)
		ol.Next(got)
		for k := 0; k < segs; k++ {
			want := g.Generate(segLen, engine.DeriveSeed(cfg.Seed, uint64(k)))
			for i, w := range want {
				r := got[k*segLen+i]
				if r.Addr != w.Addr || r.Op != w.Op {
					t.Fatalf("%s: segment %d record %d = %+v, Generate has %+v", g.Name(), k, i, r, w)
				}
			}
		}
	}
}

// pausable is the surface the restore test drives: OpenLoop or ClosedLoop.
type pausable interface {
	Next(dst []trace.Record) int
	SetGenerator(g Generator)
	Emitted() uint64
}

// restoreCase describes one stream under test: how to build it fresh, and
// how to export and restore its state.
type restoreCase struct {
	name    string
	build   func(t *testing.T) pausable
	state   func(p pausable) any
	restore func(p pausable, st any) error
	// swapAt, when positive, swaps in swapTo at the first chunk boundary
	// with Emitted() >= swapAt (a scenario phase event).
	swapAt uint64
	swapTo func(t *testing.T) Generator
}

// TestStreamRestoreAtEveryBoundary runs each stream through a script of
// random-sized pulls (with phase swaps and, for closed loops, latency
// feedback at chunk boundaries), exporting its state at every boundary.
// A fresh stream restored at any of those (seg, pos) points — with the
// generator swaps already applied replayed first, as a resumed session
// does — must continue bit-identically to the uninterrupted stream, across
// segment ends, mid-segment generator swaps and ShiftTo swaps.
func TestStreamRestoreAtEveryBoundary(t *testing.T) {
	t.Parallel()
	const segLen = 257
	open := func(cfg OpenLoopConfig, base string) func(t *testing.T) pausable {
		return func(t *testing.T) pausable {
			if cfg.ShiftAfter > 0 {
				cfg.ShiftTo = richCustom(t, "shift-to")
			}
			ol, err := NewOpenLoop(richCustom(t, base), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ol
		}
	}
	closed := func(cfg OpenLoopConfig) func(t *testing.T) pausable {
		return func(t *testing.T) pausable {
			if cfg.ShiftAfter > 0 {
				cfg.ShiftTo = NewStream()
			}
			cl, err := NewClosedLoop(NewHeap(), cfg, ClosedLoopConfig{Users: 3, RatePerSec: 2e4, Alpha: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}
	}
	olState := func(p pausable) any { return p.(*OpenLoop).State() }
	olRestore := func(p pausable, st any) error { return p.(*OpenLoop).RestoreState(st.(OpenLoopState)) }
	clState := func(p pausable) any { return p.(*ClosedLoop).State() }
	clRestore := func(p pausable, st any) error { return p.(*ClosedLoop).RestoreState(st.(ClosedLoopState)) }
	swapGen := func(t *testing.T) Generator { return NewStream() }

	cases := []restoreCase{
		{name: "open plain", build: open(OpenLoopConfig{RatePerSec: 1e6, BurstAmp: 0.3, Seed: 4, SegmentLen: segLen}, "base"),
			state: olState, restore: olRestore},
		{name: "open phase swap", build: open(OpenLoopConfig{RatePerSec: 1e6, Seed: 5, SegmentLen: segLen}, "base"),
			state: olState, restore: olRestore, swapAt: 600, swapTo: swapGen},
		{name: "open shift-to", build: open(OpenLoopConfig{RatePerSec: 1e6, Seed: 6, SegmentLen: segLen,
			ShiftAfter: 700, ShiftOffsetPages: 1 << 20}, "base"),
			state: olState, restore: olRestore},
		{name: "closed phase swap", build: closed(OpenLoopConfig{Seed: 7, SegmentLen: segLen}),
			state: clState, restore: clRestore, swapAt: 450, swapTo: swapGen},
		{name: "closed shift-to", build: closed(OpenLoopConfig{Seed: 8, SegmentLen: segLen,
			ShiftAfter: 900, ShiftOffsetPages: 1 << 18}),
			state: clState, restore: clRestore},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			// Chunk sizes: random, plus chunks that land exactly on
			// segment ends so a cursor of pos == SegmentLen is covered.
			var chunks []int
			for total := 0; total < 2200; {
				c := 1 + rng.Intn(90)
				if next := (total/segLen + 1) * segLen; rng.Intn(4) == 0 && next-total <= 120 {
					c = next - total
				}
				chunks = append(chunks, c)
				total += c
			}
			// run drives p through chunks[from:], applying the script's
			// swap and feedback, and returns the records, the state
			// exported at each boundary, and the boundary the swap landed
			// on (-1 if it did not).
			run := func(p pausable, from int, swapped bool) ([]trace.Record, []any, int) {
				var out []trace.Record
				var states []any
				swapK := -1
				for k := from; k < len(chunks); k++ {
					if tc.swapAt > 0 && !swapped && p.Emitted() >= tc.swapAt {
						p.SetGenerator(tc.swapTo(t))
						swapped, swapK = true, k
					}
					states = append(states, tc.state(p))
					buf := make([]trace.Record, chunks[k])
					p.Next(buf)
					out = append(out, buf...)
					if cl, ok := p.(*ClosedLoop); ok {
						cl.ObserveLatency(float64(1000 + 37*k))
					}
				}
				return out, states, swapK
			}
			want, states, swapK := run(tc.build(t), 0, false)
			if tc.swapAt > 0 && swapK < 0 {
				t.Fatal("script never reached the phase swap")
			}

			offset := 0
			for k := range chunks {
				fresh := tc.build(t)
				// A resumed session replays its already-applied phase
				// events before the stream cursor lands.
				swapped := swapK >= 0 && swapK <= k
				if swapped {
					fresh.SetGenerator(tc.swapTo(t))
				}
				if err := tc.restore(fresh, states[k]); err != nil {
					t.Fatalf("boundary %d: restore: %v", k, err)
				}
				got, _, _ := run(fresh, k, swapped)
				for i := range got {
					if got[i] != want[offset+i] {
						t.Fatalf("boundary %d (emitted %d): record %d differs after restore: %+v vs %+v",
							k, offset, i, got[i], want[offset+i])
					}
				}
				offset += chunks[k]
			}
		})
	}
}

// TestOpenLoopRetainedHeapIndependentOfSegmentLen: an open-loop stream
// holds its in-flight segment's generator cursor, never the segment's
// records, so what it retains after one pull does not grow with SegmentLen.
// (Materializing a 1<<20-record segment would retain 24 MiB.)
func TestOpenLoopRetainedHeapIndependentOfSegmentLen(t *testing.T) {
	retained := func(segLen int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ol, err := NewOpenLoop(NewDLRM(), OpenLoopConfig{RatePerSec: 1e6, Seed: 1, SegmentLen: segLen})
		if err != nil {
			t.Fatal(err)
		}
		var one [1]trace.Record
		ol.Next(one[:])
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ol)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	const bound = 256 << 10
	for _, segLen := range []int{1 << 10, 1 << 20} {
		if got := retained(segLen); got > bound {
			t.Errorf("SegmentLen %d: stream retains %d bytes after one Next, want <= %d", segLen, got, bound)
		}
	}
}
