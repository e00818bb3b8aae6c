package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	// minRounds is the fewest measured rounds per paper-grid run, so every
	// run checks that a second round reproduces the first.
	minRounds = 2
	// maxRounds caps a run on a fast machine.
	maxRounds = 64
	// checkpointCalls is how many back-to-back Checkpoint calls a round
	// times (and checks for identical documents).
	checkpointCalls = 3
	// paper-grid's finalize, checkpoint and resume steps take tens of
	// microseconds, so each is timed as samples of gridSampleReps calls,
	// taken in turns for gridSampleTime.
	gridSampleTime = 4 * time.Second
	gridSampleReps = 20
	// gridSetups is how many times a paper-grid round times its set-up, so
	// setup_s is a median over several samples even with two rounds.
	gridSetups = 3
)

// sessionRound is one serve session measured from Open to the end of the
// resumed tail. The Step loop and the explicit checkpoints are timed in wall
// time, which the traced run uses, and every timed call in process CPU time,
// which the end-to-end metrics use.
type sessionRound struct {
	loop      time.Duration // wall time of the Step loop, excluding the explicit checkpoints
	steps     []float64     // wall ms of each Step(1) that served a batch
	ckpt      []float64     // wall seconds per explicit Checkpoint call
	cpu       roundCPU
	ckptBytes int
	heapMB    float64
	ops       uint64
	stream    [32]byte // hash of the live session's metric stream
	sess      *serve.Session
}

// roundCPU is the process CPU time of a round's timed calls: Open, the Step
// loop and each Step(1) in it (ms), each explicit Checkpoint (s), Close and
// Resume.
type roundCPU struct {
	setup, loop, finalize, resume time.Duration
	steps, ckpt                   []float64
}

// summaryOps returns the ops field of the final "summary" record of a
// session's metric stream.
func summaryOps(stream []byte) (uint64, error) {
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	var rec struct {
		Kind string `json:"kind"`
		Ops  uint64 `json:"ops"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return 0, err
	}
	if rec.Kind != "summary" {
		return 0, fmt.Errorf("last record is %q, not summary", rec.Kind)
	}
	return rec.Ops, nil
}

// liveHeapMB forces a collection and returns the live heap less the bytes
// the benchmark itself holds (metric stream and checkpoint buffers).
func liveHeapMB(held int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-int64(held)) / 1e6
}

// serveRound runs one session: Open, Step(1) to the end with an explicit
// Checkpoint resumeTailBatches before it, live heap, Close, then Resume from
// that checkpoint and serve the tail, checking the resumed tail's metric
// records equal the live session's byte for byte. tr, when non-nil, records
// spans and classifies steps; it is nil for end-to-end measurement.
func serveRound(spec serve.Spec, ckptEvery uint64, t *tally, tr *sessionTracer) (*sessionRound, error) {
	var live bytes.Buffer
	r := &sessionRound{}
	c0 := cpuNow()
	sp := tr.begin("serve.open")
	sess, err := serve.Open(spec, &live)
	tr.end(sp, 0)
	r.cpu.setup = cpuNow() - c0
	if !t.op("serve.Open", err) {
		return nil, err
	}
	if ckptEvery > 0 {
		sess.CheckpointEvery(ckptEvery, func(doc []byte) error {
			if len(doc) == 0 {
				return errors.New("empty periodic checkpoint")
			}
			tr.periodicCheckpoint()
			return nil
		})
	}
	tr.observe(sess)
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	total := (spec.EffectiveOps() + uint64(cfg.BatchSize) - 1) / uint64(cfg.BatchSize)
	ckptAt := total - resumeTailBatches
	var doc []byte
	emittedAt := 0
	for !sess.Done() {
		if doc == nil && sess.Batches() == ckptAt {
			for i := 0; i < checkpointCalls; i++ {
				var b bytes.Buffer
				sp := tr.begin("serve.checkpoint")
				st, c0 := time.Now(), cpuNow()
				err := sess.Checkpoint(&b)
				d, c := time.Since(st), cpuNow()-c0
				tr.end(sp, 0)
				if !t.op("Session.Checkpoint", err) {
					sess.Detach()
					return nil, err
				}
				r.ckpt = append(r.ckpt, d.Seconds())
				r.cpu.ckpt = append(r.cpu.ckpt, c.Seconds())
				if doc != nil {
					t.check("repeated checkpoints are identical", bytes.Equal(doc, b.Bytes()))
				}
				doc = b.Bytes()
			}
			emittedAt = live.Len()
			r.ckptBytes = len(doc)
		}
		tr.midRun(sess, total)
		sp := tr.begin("serve.step")
		st, c0 := time.Now(), cpuNow()
		n, err := sess.Step(1)
		d, c := time.Since(st), cpuNow()-c0
		tr.endStep(sp, sess, n)
		if !t.op("Session.Step", err) {
			sess.Detach()
			return nil, err
		}
		r.loop += d
		r.cpu.loop += c
		if n == 1 {
			r.steps = append(r.steps, float64(d)/1e6)
			r.cpu.steps = append(r.cpu.steps, float64(c)/1e6)
		}
	}
	if !t.check("explicit checkpoint taken", doc != nil) {
		sess.Detach()
		return nil, errors.New("run ended before the explicit checkpoint")
	}
	r.heapMB = liveHeapMB(cap(doc) + live.Cap())

	sp = tr.begin("serve.close")
	c0 = cpuNow()
	err = sess.Close()
	r.cpu.finalize = cpuNow() - c0
	tr.end(sp, 0)
	if !t.op("Session.Close", err) {
		return nil, err
	}
	r.sess = sess
	r.stream = sha256.Sum256(live.Bytes())
	ops, err := summaryOps(live.Bytes())
	t.op("parse summary record", err)
	r.ops = ops
	t.check("served ops equal the spec's ops", ops == spec.EffectiveOps())

	var tailOut bytes.Buffer
	sp = tr.begin("serve.resume")
	c0 = cpuNow()
	rs, err := serve.Resume(bytes.NewReader(doc), &tailOut)
	r.cpu.resume = cpuNow() - c0
	tr.end(sp, 0)
	if !t.op("serve.Resume", err) {
		return nil, err
	}
	for !rs.Done() {
		if _, err := rs.Step(1); !t.op("resumed Session.Step", err) {
			rs.Detach()
			return nil, err
		}
	}
	t.op("resumed Session.Close", rs.Close())
	t.check("resumed tail's records equal the live session's", bytes.Equal(tailOut.Bytes(), live.Bytes()[emittedAt:]))
	return r, nil
}

// checkSnapshot verifies that a closed session's cache saw every
// device-routed request, and returns its modelled hit ratio and mean
// sojourn in microseconds.
func checkSnapshot(snap *serve.Snapshot, t *tally) (hit, meanUs float64) {
	var host uint64
	for _, p := range snap.Partitions {
		host += p.HostOps
	}
	t.check("hits + misses equal device-routed ops", snap.Cache.Hits+snap.Cache.Misses == snap.Ops-host)
	if snap.Latency.Count > 0 {
		meanUs = float64(snap.Latency.SumNanosec) / float64(snap.Latency.Count) / 1e3
	}
	return snap.HitRatio(), meanUs
}

// anotherPassFits reports whether one more pass, as long as the mean of the
// passes run so far, would end within the budget.
func anotherPassFits(elapsed time.Duration, passes int, budget time.Duration) bool {
	return elapsed+elapsed/time.Duration(passes) <= budget
}

// serveEndToEnd measures a serve workload in passes, starting another pass
// only while it fits the budget. A pass runs one session per spec.
// Throughput and the step percentiles are taken per pass over the pass's
// sessions, and the reported value is their median over passes; the
// per-call metrics (set-up, finalize, checkpoint, resume, heap) are medians
// over every session run. Host time is process CPU time (see cpuNow); the
// wall-time throughput and median step go to the info line. A session
// served again must reproduce its first metric stream: when the budget
// allows only one pass, the first spec is served once more to check that.
func serveEndToEnd(specs []serve.Spec, ckptEvery uint64, budget time.Duration, t *tally, info *runInfo) (map[string]float64, error) {
	for _, spec := range specs {
		info.Ops += spec.EffectiveOps()
	}
	if w := specs[0].Workload; w != nil {
		info.RatePerSec = w.Rate
	} else {
		for _, ten := range specs[0].Tenants {
			info.RatePerSec += ten.RatePerSec
		}
	}
	var setup, fin, ckpt, res, heap []float64       // per session
	var ops, p50, tails, wallOps, wallP50 []float64 // per pass
	first := make([][32]byte, len(specs))
	m := map[string]float64{}
	start := time.Now()
	for pass := 0; pass < maxRounds && (pass == 0 || anotherPassFits(time.Since(start), pass, budget)); pass++ {
		var steps, wallSteps []float64
		var served uint64
		var loop, wallLoop time.Duration
		for i, spec := range specs {
			r, err := serveRound(spec, ckptEvery, t, nil)
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				first[i] = r.stream
				hit, lat := checkSnapshot(r.sess.Metrics(), t)
				m["hit_ratio"] += hit / float64(len(specs))
				m["sim_latency_mean_us"] += lat / float64(len(specs))
				m["checkpoint_mb"] += float64(r.ckptBytes) / 1e6 / float64(len(specs))
			} else {
				t.check("modelled metric stream identical across passes", r.stream == first[i])
			}
			steps = append(steps, r.cpu.steps...)
			wallSteps = append(wallSteps, r.steps...)
			served += r.ops
			loop += r.cpu.loop
			wallLoop += r.loop
			setup = append(setup, r.cpu.setup.Seconds())
			fin = append(fin, r.cpu.finalize.Seconds())
			ckpt = append(ckpt, median(r.cpu.ckpt))
			res = append(res, r.cpu.resume.Seconds())
			heap = append(heap, r.heapMB)
		}
		tv, pct, beyond := tail(steps)
		info.Tail = &tailInfo{Percentile: pct, Beyond: beyond, Samples: len(steps)}
		ops = append(ops, float64(served)/loop.Seconds())
		p50 = append(p50, median(steps))
		tails = append(tails, tv)
		wallOps = append(wallOps, float64(served)/wallLoop.Seconds())
		wallP50 = append(wallP50, median(wallSteps))
		info.Rounds = pass + 1
	}
	if info.Rounds == 1 {
		r, err := serveRound(specs[0], ckptEvery, t, nil)
		if err != nil {
			return nil, err
		}
		t.check("modelled metric stream identical when served again", r.stream == first[0])
	}
	m["setup_s"] = median(setup)
	m["ops_per_cpu_s"] = median(ops)
	m["batch_cpu_p50_ms"] = median(p50)
	m["batch_cpu_tail_ms"] = median(tails)
	m["finalize_s"] = median(fin)
	m["checkpoint_s"] = median(ckpt)
	m["resume_s"] = median(res)
	m["live_heap_mb"] = median(heap)
	info.Wall = &wallInfo{OpsPerSec: median(wallOps), BatchP50Ms: median(wallP50)}
	return m, nil
}

// gridTraces generates the seven benchmark traces exactly as RunAll does
// for its options.
func gridTraces(o experiments.Options) []workloadTrace {
	var out []workloadTrace
	for _, g := range workload.Registry() {
		out = append(out, workloadTrace{name: g.Name(), tr: g.Generate(o.Requests, o.Seed)})
	}
	return out
}

// checkGrid verifies a RunAll result: one comparison per paper benchmark,
// every miss rate a percentage.
func checkGrid(cmps []*core.Comparison, t *tally) {
	t.check("paper-grid returns 7 comparisons", len(cmps) == len(workload.Registry()))
	ok := true
	for _, c := range cmps {
		for _, r := range []core.RunResult{c.LRU, c.Caching, c.Eviction, c.Combined} {
			if p := r.MissRatePct(); !(p >= 0 && p <= 100) {
				ok = false
			}
		}
	}
	t.check("paper-grid miss rates within [0, 100]", ok)
}

// timeEach returns the process CPU time of one call of each fn: for each,
// the median over samples of the mean over gridSampleReps calls. The
// functions take turns, one sample at a time, for gridSampleTime, so every
// function's samples spread over the whole window and the machine's speed
// swings within it.
func timeEach(fns ...func()) []time.Duration {
	runtime.GC() // start from the same heap state every round
	samples := make([][]float64, len(fns))
	for start := time.Now(); time.Since(start) < gridSampleTime; {
		for i, fn := range fns {
			c0 := cpuNow()
			for j := 0; j < gridSampleReps; j++ {
				fn()
			}
			samples[i] = append(samples[i], float64(cpuNow()-c0)/gridSampleReps)
		}
	}
	out := make([]time.Duration, len(fns))
	for i, s := range samples {
		out[i] = time.Duration(median(s))
	}
	return out
}

// gridEndToEnd measures paper-grid: each round generates the seven traces
// (set-up), runs RunAll (the timed batch), then renders Fig. 6 and Table 1
// (finalize) and round-trips the comparisons through JSON (checkpoint and
// resume of the grid's results). Host time is process CPU time, as on the
// serve workloads; RunAll's wall-time throughput goes to the info line.
func gridEndToEnd(seed int64, budget time.Duration, t *tally, info *runInfo) (map[string]float64, error) {
	o := gridOptions(seed, gridWorkers)
	info.Ops = uint64(o.Requests * len(workload.Registry()))
	var setup, ops, batches, fin, ckpt, res, heap, wallOps []float64
	var first []byte
	m := map[string]float64{}
	start := time.Now()
	for round := 0; round < maxRounds && (round < minRounds || time.Since(start) < budget); round++ {
		var traces []workloadTrace
		for i := 0; i < gridSetups; i++ {
			c0 := cpuNow()
			traces = gridTraces(o)
			setup = append(setup, (cpuNow() - c0).Seconds())
		}

		st, c0 := time.Now(), cpuNow()
		cmps, err := experiments.RunAll(o, nil)
		wall, cpu := time.Since(st), cpuNow()-c0
		if !t.op("experiments.RunAll", err) {
			return nil, err
		}
		// The round holds its inputs, as a caller of RunAll would; with them
		// live the figure is not just the runtime's own few kilobytes.
		heap = append(heap, liveHeapMB(0))
		runtime.KeepAlive(traces)
		checkGrid(cmps, t)
		ops = append(ops, float64(info.Ops)/cpu.Seconds())
		batches = append(batches, float64(cpu)/1e6)
		wallOps = append(wallOps, float64(info.Ops)/wall.Seconds())

		doc, err := json.Marshal(cmps)
		if !t.op("encode comparisons", err) {
			return nil, err
		}
		var back []*core.Comparison
		var decodeErr error
		d := timeEach(
			func() { _ = experiments.Fig6Table(cmps).String() + experiments.Table1(cmps).String() },
			func() { doc, err = json.Marshal(cmps) },
			func() {
				back = nil
				decodeErr = json.Unmarshal(doc, &back)
			},
		)
		fin = append(fin, d[0].Seconds())
		ckpt = append(ckpt, d[1].Seconds())
		res = append(res, d[2].Seconds())
		if err := errors.Join(err, decodeErr); !t.op("round-trip comparisons", err) {
			return nil, err
		}
		t.check("decoded comparisons equal RunAll's", reflect.DeepEqual(back, cmps))
		if round == 0 {
			first = doc
			var hit, lat float64
			for _, c := range cmps {
				best := c.BestGMM()
				hit += 1 - best.Cache.MissRate()
				lat += float64(best.AvgLatency) / 1e3
			}
			m["hit_ratio"] = hit / float64(len(cmps))
			m["sim_latency_mean_us"] = lat / float64(len(cmps))
			m["checkpoint_mb"] = float64(len(doc)) / 1e6
		} else {
			t.check("modelled grid results identical across rounds", bytes.Equal(doc, first))
		}
		info.Rounds = round + 1
	}
	tv, pct, beyond := tail(batches)
	info.Tail = &tailInfo{Percentile: pct, Beyond: beyond, Samples: len(batches)}
	m["setup_s"] = median(setup)
	m["ops_per_cpu_s"] = median(ops)
	m["batch_cpu_p50_ms"] = median(batches)
	m["batch_cpu_tail_ms"] = tv
	m["finalize_s"] = median(fin)
	m["checkpoint_s"] = median(ckpt)
	m["resume_s"] = median(res)
	m["live_heap_mb"] = median(heap)
	info.Wall = &wallInfo{OpsPerSec: median(wallOps)}
	return m, nil
}
