package workload

import (
	"errors"
	"math"

	"repro/internal/engine"
	"repro/internal/trace"
)

// OpenLoopConfig describes an open-loop arrival process layered over a
// trace generator: requests arrive on their own clock regardless of how fast
// the service drains them, the load shape a production memory expander sees
// from independent hosts (as opposed to the closed-loop replay of
// internal/core, where each request waits for the previous completion).
type OpenLoopConfig struct {
	// RatePerSec is the mean arrival rate in requests per second. Zero or
	// negative means a saturating source: every request arrives at time 0
	// and the service runs as fast as its own latency model allows.
	RatePerSec float64
	// BurstAmp sinusoidally modulates the instantaneous rate by ±BurstAmp
	// (0 <= BurstAmp < 1); 0 keeps arrivals evenly spaced. Bursts stress
	// per-shard queueing without adding a second RNG stream — the arrival
	// clock stays a pure function of the request index.
	BurstAmp float64
	// BurstPeriod is the modulation period in requests (default 100000).
	BurstPeriod int
	// SegmentLen is how many records are drawn from the generator per
	// segment (default 65536). Each segment is the first SegmentLen records
	// of the generator's stream for a seed derived from (Seed, segment
	// index), so the stream is reproducible and unbounded; records are
	// pulled one at a time, and no segment is ever materialized.
	SegmentLen int
	// Seed drives segment seed derivation.
	Seed int64
	// ShiftAfter, when positive, remaps every page by ShiftOffsetPages
	// once that many requests have been emitted — a sustained working-set
	// drift that invalidates a model trained before the shift. Used to
	// exercise online model refresh.
	ShiftAfter uint64
	// ShiftOffsetPages is the page offset applied after the shift point.
	ShiftOffsetPages uint64
	// ShiftTo, when set, also swaps the stream's generator at the shift
	// point, so the working set does not merely relocate but changes shape
	// or size — e.g. a tenant whose post-shift working set outgrows its HBM
	// capacity share, the scenario the elastic-share controller exists for.
	// The swap is exact: the rest of the in-flight segment is discarded and
	// the next segment is drawn from ShiftTo, continuing the same derived
	// seed sequence, so streams stay reproducible bit for bit.
	ShiftTo Generator
}

// OpenLoop is a deterministic open-loop request stream: workload records from
// a Generator, stamped with arrival times in nanoseconds. The stream is
// unbounded; callers stop pulling when they have served enough requests (or
// enough virtual time has passed).
type OpenLoop struct {
	g   Generator
	cfg OpenLoopConfig

	// src is the in-flight segment's generator stream, positioned after its
	// first pos records; nil before the first segment and whenever the
	// segment is used up.
	src     *mixStream
	pos     int
	seg     uint64 // segments started; the in-flight one is seg-1
	emitted uint64
	clockNs float64
	shifted bool
	// bufShifted records whether the in-flight segment is drawn from
	// ShiftTo rather than the base generator — the one bit State needs to
	// rebuild the segment's stream from the right source on restore.
	bufShifted bool
}

// NewOpenLoop validates the config and builds the stream.
func NewOpenLoop(g Generator, cfg OpenLoopConfig) (*OpenLoop, error) {
	if g == nil {
		return nil, errors.New("workload: open loop needs a generator")
	}
	if cfg.BurstAmp < 0 || cfg.BurstAmp >= 1 {
		return nil, errors.New("workload: burst amplitude outside [0, 1)")
	}
	if cfg.ShiftTo != nil && cfg.ShiftAfter == 0 {
		return nil, errors.New("workload: ShiftTo configured without ShiftAfter — the swap would never happen")
	}
	if cfg.BurstPeriod <= 0 {
		cfg.BurstPeriod = 100_000
	}
	if cfg.SegmentLen <= 0 {
		cfg.SegmentLen = 1 << 16
	}
	return &OpenLoop{g: g, cfg: cfg}, nil
}

// Name labels the stream after its generator.
func (ol *OpenLoop) Name() string { return ol.g.Name() }

// Rate returns the configured mean arrival rate in requests per second.
func (ol *OpenLoop) Rate() float64 { return ol.cfg.RatePerSec }

// SetRate changes the arrival rate at a batch boundary. Already-stamped
// arrivals keep their times; only future interarrival gaps use the new rate,
// so a rate schedule replayed at the same boundaries reproduces the same
// stream bit for bit.
func (ol *OpenLoop) SetRate(r float64) { ol.cfg.RatePerSec = r }

// SetGenerator swaps the stream's trace generator — the scenario engine's
// workload-phase event. The in-flight segment's stream is rebuilt from the
// new generator (same derived seed, same cursor), so the swap takes effect
// at the very next record and a resumed stream, which rebuilds its segment
// from the post-swap generator, stays bit-identical. The in-flight segment
// keeps its generator while a ShiftTo segment is live: phase events and
// working-set shifts are mutually exclusive per stream (the spec validates
// this).
func (ol *OpenLoop) SetGenerator(g Generator) {
	ol.g = g
	if ol.src != nil && !ol.bufShifted {
		ol.src = ol.segmentStream(g, ol.seg-1, ol.pos)
	}
}

// segmentStream starts segment seg's stream from generator g and skips its
// first pos records, leaving it where a stream that never paused would be.
func (ol *OpenLoop) segmentStream(g Generator, seg uint64, pos int) *mixStream {
	s := g.stream(engine.DeriveSeed(ol.cfg.Seed, seg))
	for i := 0; i < pos; i++ {
		s.next()
	}
	return s
}

// Emitted returns how many requests have been produced so far.
func (ol *OpenLoop) Emitted() uint64 { return ol.emitted }

// Next fills dst with the next len(dst) requests of the stream and returns
// how many were written (always len(dst); the stream never ends). Each
// record's Time field carries the arrival time in nanoseconds.
func (ol *OpenLoop) Next(dst []trace.Record) int {
	for i := range dst {
		if ol.cfg.ShiftAfter > 0 && !ol.shifted && ol.emitted >= ol.cfg.ShiftAfter {
			ol.shifted = true
			if ol.cfg.ShiftTo != nil {
				ol.src = nil // discard the pre-shift remainder
			}
		}
		if ol.src == nil {
			g := ol.g
			ol.bufShifted = ol.shifted && ol.cfg.ShiftTo != nil
			if ol.bufShifted {
				g = ol.cfg.ShiftTo
			}
			ol.src = g.stream(engine.DeriveSeed(ol.cfg.Seed, ol.seg))
			ol.pos = 0
			ol.seg++
		}
		r := ol.src.next()
		ol.pos++
		if ol.pos == ol.cfg.SegmentLen {
			ol.src = nil // segment used up; the next record starts a new one
		}
		if ol.shifted {
			r.Addr += ol.cfg.ShiftOffsetPages << trace.PageShift
		}
		r.Time = uint64(ol.clockNs)
		dst[i] = r
		ol.clockNs += ol.interarrivalNs()
		ol.emitted++
	}
	return len(dst)
}

// OpenLoopState is the stream's full mutable state. The in-flight segment's
// records are NOT stored: they are a pure function of (Seed, Seg-1) and the
// generator choice recorded in BufShifted, so RestoreState rebuilds the
// segment's stream and skips the Pos records already emitted — which is what
// keeps a checkpoint small and a restored stream bit-identical to one that
// never paused.
type OpenLoopState struct {
	Seg        uint64  `json:"seg"`
	Pos        int     `json:"pos"`
	Emitted    uint64  `json:"emitted"`
	ClockNs    float64 `json:"clock_ns"`
	Shifted    bool    `json:"shifted,omitempty"`
	BufShifted bool    `json:"buf_shifted,omitempty"`
}

// State exports the stream's mutable state (the RNG cursor of the serving
// subsystem's checkpoint).
func (ol *OpenLoop) State() OpenLoopState {
	return OpenLoopState{
		Seg:        ol.seg,
		Pos:        ol.pos,
		Emitted:    ol.emitted,
		ClockNs:    ol.clockNs,
		Shifted:    ol.shifted,
		BufShifted: ol.bufShifted,
	}
}

// RestoreState rewinds (or fast-forwards) the stream to an exported state,
// rebuilding the in-flight segment's stream deterministically. The receiver
// must have been built with the same generator and config as the exporter.
func (ol *OpenLoop) RestoreState(s OpenLoopState) error {
	if s.Seg == 0 && s.Pos != 0 {
		return errors.New("workload: open-loop state has a cursor into a segment that was never generated")
	}
	if s.Pos < 0 || s.Pos > ol.cfg.SegmentLen {
		return errors.New("workload: open-loop state cursor outside the segment")
	}
	if s.BufShifted && ol.cfg.ShiftTo == nil {
		return errors.New("workload: open-loop state needs a ShiftTo generator the config does not have")
	}
	ol.seg, ol.pos, ol.emitted = s.Seg, s.Pos, s.Emitted
	ol.clockNs, ol.shifted, ol.bufShifted = s.ClockNs, s.Shifted, s.BufShifted
	ol.src = nil
	if s.Seg > 0 && s.Pos < ol.cfg.SegmentLen {
		g := ol.g
		if s.BufShifted {
			g = ol.cfg.ShiftTo
		}
		ol.src = ol.segmentStream(g, s.Seg-1, s.Pos)
	}
	return nil
}

// interarrivalNs returns the gap to the next arrival: 1e9/rate scaled by the
// sinusoidal burst modulation at the current request index. A pure function
// of the emitted count, so arrival times are reproducible bit for bit.
func (ol *OpenLoop) interarrivalNs() float64 {
	if ol.cfg.RatePerSec <= 0 {
		return 0
	}
	gap := 1e9 / ol.cfg.RatePerSec
	if ol.cfg.BurstAmp > 0 {
		phase := 2 * math.Pi * float64(ol.emitted) / float64(ol.cfg.BurstPeriod)
		// Modulating the gap by (1 - amp*sin) speeds arrivals up during the
		// positive half-cycle — a burst — and thins them after.
		gap *= 1 - ol.cfg.BurstAmp*math.Sin(phase)
	}
	return gap
}
