// Package scenario defines the serving subsystem's deterministic event
// timeline: a list of batch-indexed events — tenant join/leave with capacity
// rebalance, per-tenant rate schedules (step changes and diurnal sine
// profiles), and workload-phase swaps drawn from the benchmark registry —
// that the session applies at batch boundaries. Because every event is keyed
// to a batch index (never wall time) and applied on the ingest goroutine
// before the batch it names is pulled, scenario runs stay bit-identical at
// any shard count and replay exactly through checkpoint/resume: the
// configuration effects of past events are a pure function of (spec,
// batches), so resume re-derives them instead of checkpointing them.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/workload"
)

// Event kinds, as the spec's "kind" field spells them.
const (
	// KindJoin re-activates a departed tenant: its stream merges back into
	// the arrival mux and the capacity rebalance returns its share.
	KindJoin = "join"
	// KindLeave deactivates a tenant: its stream stops emitting (its virtual
	// clock still advances, so a later join resumes without a burst) and its
	// HBM share is redistributed to the remaining tenants.
	KindLeave = "leave"
	// KindRate sets the tenant's open-loop rate (or closed-loop think-time
	// base) to a new constant, cancelling any active diurnal profile.
	KindRate = "rate"
	// KindDiurnal starts a sinusoidal rate profile: rate(b) = base * (1 +
	// amp*sin(2π*(b-start)/period)), recomputed at every batch boundary.
	KindDiurnal = "diurnal"
	// KindPhase swaps the tenant's workload generator to a named benchmark
	// from the registry; the in-flight segment's stream is rebuilt in place
	// from the new generator at the same cursor.
	KindPhase = "phase"
)

// Event is one timeline entry. Batch is the index of the ingest batch the
// event applies before (the first batch after warmup is batch 0; events
// require batch >= 1 so the initial spec state covers at least one batch).
type Event struct {
	Batch  uint64 `json:"batch"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`
	// Rate is the new base rate in req/s (kinds rate and diurnal).
	Rate float64 `json:"rate,omitempty"`
	// Amp is the diurnal amplitude in (0, 1).
	Amp float64 `json:"amp,omitempty"`
	// Period is the diurnal period in batches (>= 2).
	Period uint64 `json:"period,omitempty"`
	// Workload is the registry benchmark name (kind phase).
	Workload string `json:"workload,omitempty"`
}

// Spec is the serve spec's "scenario" block: the event timeline, sorted by
// batch (ties apply in list order).
type Spec struct {
	Events []Event `json:"events"`
}

// Validate checks the timeline against the run's tenant set: events sorted
// by batch with batch >= 1, every event naming a known tenant, per-kind
// parameter ranges, and a join/leave sequence that is always consistent
// (join only a departed tenant, leave only an active one, and never the last
// active tenant — an empty arrival mux would stall the run forever).
func (s *Spec) Validate(tenants []string) error {
	if s == nil {
		return nil
	}
	known := make(map[string]bool, len(tenants))
	active := make(map[string]bool, len(tenants))
	for _, name := range tenants {
		known[name] = true
		active[name] = true
	}
	nActive := len(tenants)
	var prev uint64
	for i, ev := range s.Events {
		if ev.Batch < 1 {
			return fmt.Errorf("scenario: event %d: batch must be >= 1", i)
		}
		if ev.Batch < prev {
			return fmt.Errorf("scenario: event %d: batch %d out of order (previous %d)", i, ev.Batch, prev)
		}
		prev = ev.Batch
		if ev.Tenant == "" {
			return fmt.Errorf("scenario: event %d: missing tenant", i)
		}
		if !known[ev.Tenant] {
			return fmt.Errorf("scenario: event %d: unknown tenant %q", i, ev.Tenant)
		}
		switch ev.Kind {
		case KindJoin:
			if err := noParams(ev); err != nil {
				return fmt.Errorf("scenario: event %d: %v", i, err)
			}
			if active[ev.Tenant] {
				return fmt.Errorf("scenario: event %d: tenant %q joins but is already active", i, ev.Tenant)
			}
			active[ev.Tenant] = true
			nActive++
		case KindLeave:
			if err := noParams(ev); err != nil {
				return fmt.Errorf("scenario: event %d: %v", i, err)
			}
			if !active[ev.Tenant] {
				return fmt.Errorf("scenario: event %d: tenant %q leaves but is not active", i, ev.Tenant)
			}
			if nActive == 1 {
				return fmt.Errorf("scenario: event %d: tenant %q is the last active tenant", i, ev.Tenant)
			}
			active[ev.Tenant] = false
			nActive--
		case KindRate:
			if !(ev.Rate > 0) || math.IsInf(ev.Rate, 0) {
				return fmt.Errorf("scenario: event %d: rate must be positive and finite", i)
			}
			if ev.Amp != 0 || ev.Period != 0 || ev.Workload != "" {
				return fmt.Errorf("scenario: event %d: rate event takes only a rate", i)
			}
		case KindDiurnal:
			if !(ev.Rate > 0) || math.IsInf(ev.Rate, 0) {
				return fmt.Errorf("scenario: event %d: diurnal base rate must be positive and finite", i)
			}
			if !(ev.Amp > 0) || ev.Amp >= 1 {
				return fmt.Errorf("scenario: event %d: diurnal amp must be in (0, 1)", i)
			}
			if ev.Period < 2 {
				return fmt.Errorf("scenario: event %d: diurnal period must be >= 2 batches", i)
			}
			if ev.Workload != "" {
				return fmt.Errorf("scenario: event %d: diurnal event takes no workload", i)
			}
		case KindPhase:
			if ev.Workload == "" {
				return fmt.Errorf("scenario: event %d: phase event needs a workload", i)
			}
			if _, err := workload.ByName(ev.Workload); err != nil {
				return fmt.Errorf("scenario: event %d: %v", i, err)
			}
			if ev.Rate != 0 || ev.Amp != 0 || ev.Period != 0 {
				return fmt.Errorf("scenario: event %d: phase event takes only a workload", i)
			}
		default:
			return fmt.Errorf("scenario: event %d: unknown kind %q (valid: join|leave|rate|diurnal|phase)", i, ev.Kind)
		}
	}
	return nil
}

// noParams rejects payload fields on the parameterless kinds.
func noParams(ev Event) error {
	if ev.Rate != 0 || ev.Amp != 0 || ev.Period != 0 || ev.Workload != "" {
		return errors.New(ev.Kind + " event takes no parameters")
	}
	return nil
}

// DiurnalRate evaluates the sinusoidal profile at a batch boundary: the
// offered rate for batch b of a profile started at batch start. Pure
// function, so replay after resume lands on the identical float.
func DiurnalRate(base, amp float64, start, period, batch uint64) float64 {
	phase := 2 * math.Pi * float64(batch-start) / float64(period)
	return base * (1 + amp*math.Sin(phase))
}

// Timeline walks a validated spec's events in batch order. The session holds
// one cursor and consumes events as batch boundaries pass; Replay fast-
// forwards the cursor through the prefix a resumed run has already applied.
type Timeline struct {
	events []Event
	next   int
}

// NewTimeline builds a cursor over the spec's events (nil spec -> empty
// timeline).
func NewTimeline(s *Spec) *Timeline {
	if s == nil {
		return &Timeline{}
	}
	return &Timeline{events: s.Events}
}

// Take returns the events scheduled for exactly the given batch, advancing
// the cursor past them. Call with every batch index in order.
func (t *Timeline) Take(batch uint64) []Event {
	start := t.next
	for t.next < len(t.events) && t.events[t.next].Batch == batch {
		t.next++
	}
	return t.events[start:t.next]
}

// Replay returns every event strictly before the given batch, advancing the
// cursor past them — the already-applied prefix a resumed session re-derives
// its configuration state from.
func (t *Timeline) Replay(batch uint64) []Event {
	start := t.next
	for t.next < len(t.events) && t.events[t.next].Batch < batch {
		t.next++
	}
	return t.events[start:t.next]
}

// Pending reports how many events the cursor has not yet passed.
func (t *Timeline) Pending() int { return len(t.events) - t.next }
