package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/gmm"
	"repro/internal/hbm"
	"repro/internal/lstm"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one traced interval: a layer call group (one batch of one layer)
// or one session call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int    `json:"ops,omitempty"`
	Class   string `json:"class,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Spans nest: a span begun while another is open becomes its child.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) end(id, ops int) time.Duration {
	s := &tr.spans[id]
	s.EndNs = int64(time.Since(tr.t0))
	s.Ops = ops
	tr.open = tr.open[:len(tr.open)-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// total sums the durations of every span with the given name.
func (tr *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range tr.spans {
		if s.Name == name {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

// timed runs fn inside a span and returns its duration.
func (tr *tracer) timed(name string, ops int, fn func()) time.Duration {
	id := tr.begin(name)
	fn()
	return tr.end(id, ops)
}

// write stores the spans under .bench_build in the working directory (the
// checkout the benchmark runs in) and returns the file name.
func (tr *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	doc, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, doc, 0o644)
}

// sessionTracer records spans around a serve session's public calls and
// classifies each Step by the events it emitted. Every method is a no-op on
// a nil receiver, which is how end-to-end rounds run untraced.
type sessionTracer struct {
	*tracer
	report     uint64
	refreshed  bool
	checkpoint bool
	classes    map[string][]float64
	metricsMs  float64
	midDone    bool
	// Runtime counters summed over the Step calls alone.
	mem        runtime.MemStats
	allocBytes uint64
	gcPauseNs  uint64
}

func (s *sessionTracer) begin(name string) int {
	if s == nil {
		return -1
	}
	if name == "serve.step" {
		runtime.ReadMemStats(&s.mem)
	}
	return s.tracer.begin(name)
}

func (s *sessionTracer) end(id, ops int) {
	if s != nil {
		s.tracer.end(id, ops)
	}
}

func (s *sessionTracer) periodicCheckpoint() {
	if s != nil {
		s.checkpoint = true
	}
}

func (s *sessionTracer) observe(sess *serve.Session) {
	if s == nil {
		return
	}
	sess.Observe(func(ev serve.Event) {
		switch ev.Kind {
		case serve.EventRefresh, serve.EventRefreshFailed:
			s.refreshed = true
		}
	})
}

// midRun times one Session.Metrics call halfway through the run.
func (s *sessionTracer) midRun(sess *serve.Session, total uint64) {
	if s == nil || s.midDone || sess.Batches() < total/2 {
		return
	}
	s.midDone = true
	id := s.tracer.begin("serve.metrics")
	sess.Metrics()
	s.metricsMs = float64(s.tracer.end(id, 0)) / 1e6
}

// endStep closes a Step span and files its duration under the step's class:
// refit (the step installed or failed a refresh), checkpoint (a periodic
// checkpoint fired), interval (a report boundary) or plain.
func (s *sessionTracer) endStep(id int, sess *serve.Session, n int) {
	if s == nil {
		return
	}
	class := "plain"
	switch {
	case s.refreshed:
		class = "refit"
	case s.checkpoint:
		class = "checkpoint"
	case s.report > 0 && sess.Batches()%s.report == 0:
		class = "interval"
	}
	s.refreshed, s.checkpoint = false, false
	s.tracer.spans[id].Class = class
	d := s.tracer.end(id, n)
	alloc, pause := s.mem.TotalAlloc, s.mem.PauseTotalNs
	runtime.ReadMemStats(&s.mem)
	s.allocBytes += s.mem.TotalAlloc - alloc
	s.gcPauseNs += s.mem.PauseTotalNs - pause
	if n == 1 {
		s.classes[class] = append(s.classes[class], float64(d)/1e6)
	}
}

// replayInput is a workload's own inputs, as each layer is driven with them.
type replayInput struct {
	spec   serve.Spec // the spec whose bundle scores the replay
	cfg    serve.Config
	src    serve.Source
	warm   trace.Trace     // the warm-up (training) trace
	traces []workloadTrace // traces the offline core layer replays
	core   core.Config     // the configuration it replays them under
	shadow serve.ShadowSpec
}

type workloadTrace struct {
	name string
	tr   trace.Trace
}

// singleStreamInput rebuilds a single-stream spec's request stream and
// warm-up trace from the spec fields, as Session.Open does.
func singleStreamInput(spec serve.Spec, cfg serve.Config) (*replayInput, error) {
	w := spec.Workload
	gen, err := workload.ByName(w.Name)
	if err != nil {
		return nil, err
	}
	olc := workload.OpenLoopConfig{RatePerSec: w.Rate, Seed: w.Seed}
	if w.Drift {
		olc.ShiftAfter = spec.EffectiveOps() / 2
		olc.ShiftOffsetPages = 1 << 30
	}
	ol, err := workload.NewOpenLoop(gen, olc)
	if err != nil {
		return nil, err
	}
	warm := gen.Generate(spec.EffectiveWarmup(), w.Seed)
	return &replayInput{
		spec: spec, cfg: cfg, src: serve.NewOpenLoopSource(ol, spec.EffectiveOps()), warm: warm,
		traces: []workloadTrace{{name: w.Name, tr: warm}}, core: coreConfigFor(cfg),
	}, nil
}

// tenantInput rebuilds a tenant spec's closed-loop client mux (without the
// session's latency feedback and timeline) and its merged warm-up trace.
func tenantInput(spec serve.Spec, cfg serve.Config) (*replayInput, error) {
	mux, err := serve.NewClientMux(spec.Tenants, spec.Clients.EffectiveUsers(), spec.Clients.Alpha)
	if err != nil {
		return nil, err
	}
	wmux, err := serve.NewTenantMux(spec.Tenants)
	if err != nil {
		return nil, err
	}
	warm := wmux.Trace(spec.EffectiveWarmup())
	in := &replayInput{
		spec: spec, cfg: cfg, src: serve.NewMuxSource(mux, spec.EffectiveOps()), warm: warm,
		traces: []workloadTrace{{name: "tenants-warmup", tr: warm}}, core: coreConfigFor(cfg),
	}
	if spec.Shadow != nil {
		in.shadow = *spec.Shadow
	}
	return in, nil
}

// shadowShape returns the LSTM shape and training bounds of a shadow block
// with serve's defaults filled in.
func shadowShape(sh serve.ShadowSpec) (cfg lstm.Config, threshold float64, epochs, maxExamples int) {
	cfg = lstm.Config{InputDim: 2, HiddenDim: 32, Layers: 1, SeqLen: 8}
	threshold, epochs, maxExamples = 0.1, 2, 256
	if sh.Hidden > 0 {
		cfg.HiddenDim = sh.Hidden
	}
	if sh.Layers > 0 {
		cfg.Layers = sh.Layers
	}
	if sh.SeqLen > 0 {
		cfg.SeqLen = sh.SeqLen
	}
	if sh.Threshold > 0 {
		threshold = sh.Threshold
	}
	if sh.Epochs > 0 {
		epochs = sh.Epochs
	}
	if sh.MaxExamples > 0 {
		maxExamples = sh.MaxExamples
	}
	return
}

// lstmAccessOps bounds the LSTM policy replay: one network inference per
// access makes it the slowest layer by far.
const lstmAccessOps = 20000

// replayLayers drives every per-request layer with the workload's own
// inputs, one span per layer per batch, and returns the per-layer metrics.
// It also returns the time the replay spent in the per-request layers the
// serve Step loop runs, over the same requests as the loop.
func replayLayers(tr *tracer, in *replayInput, t *tally) (map[string]float64, time.Duration, error) {
	m := map[string]float64{}
	cfg := in.cfg
	batch := cfg.BatchSize
	dataflow := cfg.Device.Timing == serve.TimingDataflow

	// workload: drain the source in serve-sized batches.
	var reqs []serve.Request
	buf := make([]serve.Request, batch)
	for {
		id := tr.begin("workload.next")
		n := in.src.Next(buf)
		reqs = append(reqs, buf[:n]...)
		tr.end(id, n)
		if n == 0 {
			break
		}
	}
	m["workload.next_ns_per_op"] = perOp(tr.total("workload.next"), len(reqs))
	// Host-DRAM pages never reach the device cache under dataflow timing.
	dev := reqs
	if dataflow {
		dev = nil
		for _, r := range reqs {
			if r.Page >= cfg.Device.HostPages {
				dev = append(dev, r)
			}
		}
	}
	n := len(dev)

	var bundle *serve.Bundle
	var err error
	m["serve.train_bundle_s"] = tr.timed("serve.train_bundle", 0, func() { bundle, err = serve.TrainBundleFromSpec(in.spec) }).Seconds()
	if !t.op("serve.TrainBundleFromSpec", err) {
		return nil, 0, err
	}
	if bundle.Model == nil {
		return nil, 0, errors.New("bundle has no float model")
	}

	// trace: Algorithm 1 timestamps and normalization.
	xs, ys := make([]float64, n), make([]float64, n)
	tt := trace.NewTimestampTransformer(cfg.Transform)
	forBatches(tr, "trace.normalize", n, batch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i], ys[i] = bundle.Norm.ApplyPageTime(dev[i].Page, tt.Next())
		}
	})
	m["trace.normalize_ns_per_op"] = perOp(tr.total("trace.normalize"), n)

	// gmm: batch scoring at the spec's K and batch size.
	scores := make([]float64, n)
	var scratch gmm.Scratch
	forBatches(tr, "gmm.score", n, batch, func(lo, hi int) {
		bundle.Model.ScorePageTimeBatchScratch(xs[lo:hi], ys[lo:hi], scores[lo:hi], &scratch)
	})
	m["gmm.score_ns_per_op"] = perOp(tr.total("gmm.score"), n)

	var fit *gmm.TrainResult
	m["gmm.fit_s"] = tr.timed("gmm.fit", 0, func() { fit, _, err = gmm.FitTrace(in.warm, cfg.Transform, cfg.Train) }).Seconds()
	if !t.op("gmm.FitTrace", err) {
		return nil, 0, err
	}
	m["gmm.em_iters"] = float64(fit.Iters)

	// cache: the GMM policy admitting on the prescored densities.
	pol := policy.NewGMM(policy.GMMConfig{
		Scorer: bundle.Scorer, Normalizer: bundle.Norm, Transform: cfg.Transform,
		Threshold: bundle.Threshold, Mode: cfg.Mode, Scores: scores,
	})
	c, err := cache.New(cfg.Cache, pol)
	if !t.op("cache.New", err) {
		return nil, 0, err
	}
	outs := make([]device.Outcome, n)
	forBatches(tr, "cache.access", n, batch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outs[i] = device.OutcomeOf(c.Access(dev[i].Page, dev[i].Write), dev[i].Write)
		}
	})
	cs := c.Stats()
	m["cache.access_ns_per_op"] = perOp(tr.total("cache.access"), n)
	m["cache.hit_ratio"] = cs.HitRate()
	m["cache.admit_ratio"] = ratio(float64(cs.Inserts), float64(cs.Misses))
	m["cache.writebacks_per_kop"] = ratio(1000*float64(cs.WriteBacks), float64(n))
	t.check("replayed cache hits + misses equal device-routed ops", cs.Hits+cs.Misses == uint64(n))

	// device: both timing models over the same outcomes.
	mem, err1 := hbm.New(cfg.HBM)
	ssdDev, err2 := ssd.New(cfg.SSD, cfg.SSDChannels)
	link, err3 := cxl.NewLink(cfg.Link)
	link2, err4 := cxl.NewLink(cfg.Link)
	tl, err5 := fpga.NewDeviceTimeline(cfg.Device.Dataflow)
	if err := errors.Join(err1, err2, err3, err4, err5); !t.op("device models", err) {
		return nil, 0, err
	}
	flat := device.Flat{Mem: mem, Dev: ssdDev, Link: link, OverheadNs: cfg.GMMInference.Nanoseconds(), Overlap: cfg.Overlap}
	flatLat := make([]int64, n)
	forBatches(tr, "device.flat", n, batch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rt, dv, _ := flat.Serve(dev[i].Page, outs[i], dev[i].ArrivalNs)
			flatLat[i] = rt + dv
		}
	})
	df := device.Dataflow{Link: link2, Timeline: tl}
	dfLat := make([]int64, n)
	forBatches(tr, "device.dataflow", n, batch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dfLat[i] = df.Serve(dev[i].Page, outs[i], dev[i].ArrivalNs).DoneNs - dev[i].ArrivalNs
		}
	})
	m["device.flat_ns_per_op"] = perOp(tr.total("device.flat"), n)
	m["device.dataflow_ns_per_op"] = perOp(tr.total("device.dataflow"), n)
	lat, devSpan := flatLat, "device.flat"
	if dataflow {
		lat, devSpan = dfLat, "device.dataflow"
	}

	// stats: one histogram per partition fed the run's latencies, merged
	// and summarized as Snapshot does.
	parts := cfg.Partitions
	hs := make([]*stats.Histogram, parts)
	for i := range hs {
		hs[i] = stats.DefaultLatencyHistogram()
	}
	forBatches(tr, "stats.observe", n, batch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hs[i%parts].Observe(lat[i])
		}
	})
	agg := stats.DefaultLatencyHistogram()
	agg.SetRetention(parts << 16)
	m["stats.observe_ns_per_op"] = perOp(tr.total("stats.observe"), n)
	m["stats.merge_ms"] = float64(tr.timed("stats.merge", 0, func() {
		for _, h := range hs {
			agg.Merge(h)
		}
	})) / 1e6
	m["stats.summarize_ms"] = float64(tr.timed("stats.summarize", 0, func() { agg.Summarize() })) / 1e6
	stateBytes := 0
	for _, h := range hs {
		doc, err := json.Marshal(h.State())
		if !t.op("encode histogram state", err) {
			return nil, 0, err
		}
		stateBytes += len(doc)
	}
	m["stats.state_kb"] = float64(stateBytes) / 1e3

	covered := tr.total("workload.next") + tr.total("trace.normalize") + tr.total("gmm.score") +
		tr.total("cache.access") + tr.total(devSpan) + tr.total("stats.observe")

	if err := replayLSTM(tr, in, dev, xs, ys, m, t); err != nil {
		return nil, 0, err
	}
	if in.spec.Shadow != nil {
		// The shadow cache sees every device-routed request.
		covered += time.Duration(m["policy.lstm_access_ns_per_op"] * float64(n))
	}
	if err := replayCore(tr, in.traces, in.core, cfg.Mode, m, t); err != nil {
		return nil, 0, err
	}
	return m, covered, nil
}

// replayLSTM trains the shadow-shaped LSTM on the warm-up trace, times one
// forward pass, and replays a prefix of the device-routed requests through a
// cache under the LSTM policy.
func replayLSTM(tr *tracer, in *replayInput, dev []serve.Request, xs, ys []float64, m map[string]float64, t *tally) error {
	shape, threshold, epochs, maxEx := shadowShape(in.shadow)
	// The shadow's own seed, so a workload with a shadow replays the very
	// network its session trained.
	netSeed := in.shadow.Seed
	if netSeed == 0 {
		netSeed = in.cfg.Train.Seed
	}
	net, err := lstm.New(shape, netSeed)
	if !t.op("lstm.New", err) {
		return err
	}
	var norm trace.Normalizer
	m["lstm.train_s"] = tr.timed("lstm.train", 0, func() {
		_, norm, err = policy.TrainLSTMOnTrace(net, in.warm, in.cfg.Transform, maxEx, epochs)
	}).Seconds()
	if !t.op("policy.TrainLSTMOnTrace", err) {
		return err
	}
	seq := make([][]float64, shape.SeqLen)
	for i := range seq {
		j := i % len(xs)
		seq[i] = []float64{xs[j], ys[j]}
	}
	const forwards = 2000
	m["lstm.forward_us"] = float64(tr.timed("lstm.forward", forwards, func() {
		for i := 0; i < forwards && err == nil; i++ {
			_, err = net.Forward(seq)
		}
	})) / forwards / 1e3
	if !t.op("lstm.Network.Forward", err) {
		return err
	}
	pol := policy.NewLSTMPolicy(policy.LSTMPolicyConfig{
		Net: net, Normalizer: norm, Transform: in.cfg.Transform,
		Threshold: threshold, Admission: true, Eviction: true,
	})
	c, err := cache.New(in.cfg.Cache, pol)
	if !t.op("cache.New (lstm)", err) {
		return err
	}
	k := min(len(dev), lstmAccessOps)
	forBatches(tr, "policy.lstm_access", k, in.cfg.BatchSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.Access(dev[i].Page, dev[i].Write)
		}
	})
	m["policy.lstm_access_ns_per_op"] = perOp(tr.total("policy.lstm_access"), k)
	return nil
}

// replayCore runs the offline reproduction's layers — training, batched
// prescoring, and the LRU and GMM replays — over each trace, and reports
// the GMM's miss-rate and latency reductions against LRU averaged over the
// traces.
func replayCore(tr *tracer, traces []workloadTrace, ccfg core.Config, mode policy.GMMMode, m map[string]float64, t *tally) error {
	var missPP, latPct float64
	for _, wt := range traces {
		var tg *core.TrainedGMM
		var err error
		tr.timed("core.train", len(wt.tr), func() { tg, err = core.Train(wt.tr, ccfg) })
		if !t.op("core.Train "+wt.name, err) {
			return err
		}
		var scores []float64
		tr.timed("core.prescore", len(wt.tr), func() { scores = tg.PrescoreTrace(wt.tr) })
		var lru, gm core.RunResult
		tr.timed("core.run.lru", len(wt.tr), func() { lru, err = core.Run(wt.tr, policy.NewLRU(), 0, ccfg) })
		if !t.op("core.Run lru "+wt.name, err) {
			return err
		}
		tr.timed("core.run.gmm", len(wt.tr), func() {
			gm, err = core.Run(wt.tr, tg.PolicyPrescored(mode, scores), ccfg.GMMInference, ccfg)
		})
		if !t.op("core.Run gmm "+wt.name, err) {
			return err
		}
		missPP += lru.MissRatePct() - gm.MissRatePct()
		if lru.AvgLatency > 0 {
			latPct += 100 * float64(lru.AvgLatency-gm.AvgLatency) / float64(lru.AvgLatency)
		}
	}
	k := float64(len(traces))
	m["core.train_s"] = tr.total("core.train").Seconds()
	m["core.prescore_ms"] = float64(tr.total("core.prescore")) / 1e6
	m["core.run_s.lru"] = tr.total("core.run.lru").Seconds()
	m["core.run_s.gmm"] = tr.total("core.run.gmm").Seconds()
	m["core.miss_reduction_pp"] = missPP / k
	m["core.latency_reduction_pct"] = latPct / k
	return nil
}

// forBatches calls fn over [0, n) in batch-sized ranges, one span each.
func forBatches(tr *tracer, name string, n, batch int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		id := tr.begin(name)
		fn(lo, hi)
		tr.end(id, hi-lo)
	}
}

func perOp(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// classMedian is the median of a step class, or 0 when no step of the class
// ran (a session whose drift detector never fired has no refit step).
func classMedian(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	return median(ms)
}

// sessionLayerMetrics reports the serve-layer metrics of a traced session.
func sessionLayerMetrics(st *sessionTracer, r *sessionRound, snap *serve.Snapshot, m map[string]float64) {
	m["serve.refreshes"] = float64(snap.Refreshes)
	m["serve.refreshes_failed"] = float64(snap.RefreshesFailed)
	m["serve.refit_step_ms"] = classMedian(st.classes["refit"])
	m["serve.interval_step_ms"] = classMedian(st.classes["interval"])
	m["serve.plain_step_ms"] = classMedian(st.classes["plain"])
	m["serve.checkpoint_ms"] = 1e3 * median(r.ckpt)
	m["serve.metrics_ms"] = st.metricsMs
	m["serve.alloc_bytes_per_op"] = ratio(float64(st.allocBytes), float64(r.ops))
	m["serve.gc_pause_ms"] = float64(st.gcPauseNs) / 1e6

	var ops, host, dfOps, stalls uint64
	var depth, ssdBusy, gmmBusy float64
	for _, p := range snap.Partitions {
		ops += p.Ops
		host += p.HostOps
		dfOps += p.DeviceOps
		stalls += p.Stalls
		depth += p.QueueDepthMean * float64(p.DeviceOps)
		ssdBusy += p.SSDBusyRatio
		gmmBusy += p.GMMBusyRatio
	}
	np := float64(len(snap.Partitions))
	m["device.queue_depth_mean"] = ratio(depth, float64(dfOps))
	m["device.stall_share"] = ratio(float64(stalls), float64(dfOps))
	m["device.ssd_busy_ratio"] = ratio(ssdBusy, np)
	m["device.gmm_busy_ratio"] = ratio(gmmBusy, np)
	m["device.host_share"] = ratio(float64(host), float64(ops))
}

// tracedSession runs one traced round of spec and returns its tracer state.
func tracedSession(tr *tracer, spec serve.Spec, ckptEvery uint64, t *tally) (*sessionTracer, *sessionRound, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, nil, err
	}
	st := &sessionTracer{tracer: tr, classes: map[string][]float64{}}
	if cfg.ReportEvery > 0 {
		st.report = uint64(cfg.ReportEvery)
	}
	r, err := serveRound(spec, ckptEvery, t, st)
	return st, r, err
}

// serveTraced is the traced run of a serve workload: untraced rounds at
// shards 1 and 2 (speed-up, determinism across shard counts, and the
// baseline for tracing overhead), one traced round, then the layer replay.
func serveTraced(name string, seed int64, spec serve.Spec, ckptEvery uint64, t *tally, info *runInfo) (map[string]float64, error) {
	info.Ops = spec.EffectiveOps()
	other := 3 - spec.Shards // the other of shard counts 1 and 2
	untraced := func(shards int) (*sessionRound, error) {
		s := spec
		s.Shards = shards
		return serveRound(s, ckptEvery, t, nil)
	}
	// Untraced rounds at the spec's shard count bracket the traced one, so
	// the tracing overhead is not confounded with warm-up.
	before, err := untraced(spec.Shards)
	if err != nil {
		return nil, err
	}
	alt, err := untraced(other)
	if err != nil {
		return nil, err
	}
	t.check("metric stream identical at shards 1 and 2", before.stream == alt.stream)
	loops := map[int]time.Duration{spec.Shards: before.loop, other: alt.loop}

	tr := newTracer()
	root := tr.begin("bench.session")
	st, r, err := tracedSession(tr, spec, ckptEvery, t)
	tr.end(root, 0)
	if err != nil {
		return nil, err
	}
	t.check("traced session's metric stream equals the untraced one", r.stream == before.stream)
	after, err := untraced(spec.Shards)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	snap := r.sess.Metrics()
	sessionLayerMetrics(st, r, snap, m)
	m["engine.speedup"] = ratio(float64(loops[1]), float64(loops[2]))
	m["bench.trace_overhead_share"] = ratio(2*float64(r.loop), float64(before.loop+after.loop)) - 1

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	var in *replayInput
	if len(spec.Tenants) > 0 {
		in, err = tenantInput(spec, cfg)
	} else {
		in, err = singleStreamInput(spec, cfg)
	}
	if !t.op("build replay input", err) {
		return nil, err
	}
	replay := tr.begin("bench.replay")
	lm, covered, err := replayLayers(tr, in, t)
	tr.end(replay, 0)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	// Work the Step loop does besides the per-request layers: each refresh
	// is one EM refit, and each periodic checkpoint one encode.
	covered += time.Duration(float64(snap.Refreshes) * m["gmm.fit_s"] * 1e9)
	covered += time.Duration(float64(len(st.classes["checkpoint"])) * m["serve.checkpoint_ms"] * 1e6)
	// The replay runs each layer single-threaded, so it is compared with the
	// shards-1 Step loop.
	m["bench.unattributed_share"] = 1 - ratio(float64(covered), float64(loops[1]))
	finishTrace(tr, name, seed, m, info)
	return m, nil
}

// finishTrace writes the spans out and reports their count.
func finishTrace(tr *tracer, name string, seed int64, m map[string]float64, info *runInfo) {
	m["bench.spans"] = float64(len(tr.spans))
	file, err := tr.write(name, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		return
	}
	info.SpansFile = file
}

// spanWriter records one span per progress line RunAll emits.
type spanWriter struct {
	tr   *tracer
	last time.Duration
}

func (w *spanWriter) Write(p []byte) (int, error) {
	now := time.Since(w.tr.t0)
	w.tr.spans = append(w.tr.spans, span{
		ID: len(w.tr.spans), Parent: w.tr.open[len(w.tr.open)-1], Name: "experiments.benchmark_done",
		StartNs: int64(w.last), EndNs: int64(now),
	})
	w.last = now
	return len(p), nil
}

// gridTraced is paper-grid's traced run: a serve session over the grid's
// first benchmark for the serve-layer metrics, the layer replay over the
// seven traces, then RunAll at 1 and 2 workers (speed-up, determinism across
// worker counts, and the base the core replay is compared with) and a traced
// RunAll. Runs that are compared with each other run back to back, so the
// machine's speed drifts little between them.
func gridTraced(seed int64, t *tally, info *runInfo) (map[string]float64, error) {
	o2 := gridOptions(seed, gridWorkers)
	o1 := gridOptions(seed, 1)
	info.Ops = uint64(o2.Requests * len(workload.Registry()))
	tr := newTracer()
	m := map[string]float64{}

	spec := gridServeSpec(seed)
	root := tr.begin("bench.session")
	st, r, err := tracedSession(tr, spec, 0, t)
	tr.end(root, 0)
	if err != nil {
		return nil, err
	}
	sessionLayerMetrics(st, r, r.sess.Metrics(), m)

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	var traces []workloadTrace
	gen := tr.timed("workload.generate", 0, func() { traces = gridTraces(o1) })
	var all trace.Trace
	for _, wt := range traces {
		all = append(all, wt.tr...)
	}
	in := &replayInput{
		spec: spec, cfg: cfg, src: serve.NewTraceSource(all, singleRate), warm: traces[0].tr,
		traces: traces, core: o1.Config,
	}
	replay := tr.begin("bench.replay")
	lm, _, err := replayLayers(tr, in, t)
	tr.end(replay, 0)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}

	var docs [][]byte
	walls := map[int]time.Duration{}
	for _, o := range []experiments.Options{o1, o2} {
		st := time.Now()
		cmps, err := experiments.RunAll(o, nil)
		walls[o.Config.Workers] = time.Since(st)
		if !t.op("experiments.RunAll", err) {
			return nil, err
		}
		checkGrid(cmps, t)
		doc, err := json.Marshal(cmps)
		if !t.op("encode comparisons", err) {
			return nil, err
		}
		docs = append(docs, doc)
	}
	t.check("paper-grid identical at 1 and 2 workers", bytes.Equal(docs[0], docs[1]))
	id := tr.begin("experiments.RunAll")
	_, err = experiments.RunAll(o2, &spanWriter{tr: tr, last: time.Since(tr.t0)})
	traced := tr.end(id, 0)
	if !t.op("traced experiments.RunAll", err) {
		return nil, err
	}
	m["engine.speedup"] = ratio(float64(walls[1]), float64(walls[gridWorkers]))
	m["bench.trace_overhead_share"] = ratio(float64(traced), float64(walls[gridWorkers])) - 1
	// RunAll at one worker is generation plus, per benchmark, training,
	// prescoring and the four strategy replays; the core replay covers
	// training, prescoring and two of the four replays.
	covered := gen + tr.total("core.train") + tr.total("core.prescore") + tr.total("core.run.lru") + tr.total("core.run.gmm")
	m["bench.unattributed_share"] = 1 - ratio(float64(covered), float64(walls[1]))
	finishTrace(tr, "paper-grid", seed, m, info)
	return m, nil
}
