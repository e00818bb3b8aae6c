package serve_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/gmm"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// updateGolden regenerates the pinned golden files:
//
//	go test ./internal/serve -run TestServeTenantGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// tenantSpecs is the pinned 3-tenant QoS scenario: distinct rates, working
// sets and QoS targets. alpha fits its share entirely (hit-ratio floor) and
// runs comfortable — the natural capacity donor. beta only partially fits
// (latency ceiling the controller must trade admissions against) and holds
// near its band edge. gamma starts inside its share, then a mid-run drift
// both relocates its working set (invalidating the model: sync-refresh
// coverage) and grows it well past gamma's fixed HBM share — the capacity
// starvation only an elastic share transfer can cure.
func tenantSpecs() []serve.TenantSpec {
	return []serve.TenantSpec{
		{
			Name: "alpha",
			Custom: &workload.CustomConfig{
				Name: "alpha-ws", TotalPages: 400,
				Clusters:  []workload.ClusterSpec{{CenterPage: 100, Spread: 30}, {CenterPage: 300, Spread: 20}},
				WriteFrac: 0.2,
			},
			Seed: 1, RatePerSec: 15e3, Share: 0.5,
			QoS: &serve.QoSSpec{Metric: serve.QoSHitRatio, Target: 0.75, Band: 0.10},
		},
		{
			Name: "beta",
			Custom: &workload.CustomConfig{
				Name: "beta-ws", TotalPages: 2048,
				Clusters:  []workload.ClusterSpec{{CenterPage: 500, Spread: 120}, {CenterPage: 1500, Spread: 160}},
				WriteFrac: 0.1,
			},
			Seed: 2, RatePerSec: 9e3, BurstAmp: 0.3, OffsetPages: 1 << 16, Share: 0.3,
			QoS: &serve.QoSSpec{Metric: serve.QoSMeanNs, Target: 200e3, Band: 0.30},
		},
		{
			Name: "gamma",
			Custom: &workload.CustomConfig{
				Name: "gamma-ws", TotalPages: 192,
				Clusters: []workload.ClusterSpec{{CenterPage: 100, Spread: 25}},
				TailFrac: 0.3, TailZipfS: 1.35,
				WriteFrac: 0.3,
			},
			Seed: 3, RatePerSec: 6e3, OffsetPages: 1 << 17, Share: 0.2,
			ShiftAfter: 8 * 1024, ShiftOffsetPages: 1 << 18,
			// The post-shift working set (~480 hot pages) far exceeds
			// gamma's 200-block share: no admission threshold can hold the
			// hit-ratio floor inside it, so the threshold lever saturates
			// and the controller must move capacity.
			ShiftCustom: &workload.CustomConfig{
				Name: "gamma-ws-grown", TotalPages: 480,
				Clusters:  []workload.ClusterSpec{{CenterPage: 120, Spread: 55}, {CenterPage: 360, Spread: 55}},
				WriteFrac: 0.3,
			},
			QoS: &serve.QoSSpec{Metric: serve.QoSHitRatio, Target: 0.60, Band: 0.15},
		},
	}
}

// tenantConfig is the serving configuration of the pinned scenario.
func tenantConfig(shards int) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Shards = shards
	cfg.Partitions = 8
	cfg.Cache = cache.Config{SizeBytes: 4 << 20, BlockBytes: trace.PageSize, Ways: 8}
	cfg.Train = gmm.TrainConfig{K: 8, MaxIters: 10, Seed: 1, MaxSamples: 4000, LloydIters: 2}
	cfg.Transform.LenAccessShot = 256
	cfg.BatchSize = 1024
	cfg.ReportEvery = 16
	cfg.Tenants = tenantSpecs()
	cfg.Control.Every = 8
	cfg.Control.Step = 1.6
	// Elastic shares: a tight multiplier clamp saturates the threshold lever
	// quickly, so a capacity-starved tenant escalates to a share bid within
	// a few control intervals; quantum/cooldown keep transfers slow and
	// deterministic.
	cfg.Control.MinMult = 1.0 / 16
	cfg.Control.MaxMult = 16
	cfg.Control.ShareAdapt = true
	cfg.Control.ShareQuantum = 8
	cfg.Control.ShareHold = 2
	cfg.Control.ShareCooldown = 1
	cfg.Control.ShareFloor = 8
	cfg.Refresh.Mode = serve.RefreshSync
	cfg.Refresh.Drift = serve.DriftConfig{Delta: 0.08, Sustain: 8, Warmup: 8, Alpha: 0.2}
	cfg.Refresh.WindowSamples = 8192
	cfg.Refresh.MinSamples = 2048
	return cfg
}

// runTenantScenario trains on the muxed warm-up and serves ops requests,
// returning the snapshot and the JSONL metric bytes.
func runTenantScenario(t testing.TB, cfg serve.Config, ops uint64) (*serve.Snapshot, string) {
	t.Helper()
	warmMux, err := serve.NewTenantMux(cfg.Tenants)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := serve.TrainBundle(warmMux.Trace(30_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(cfg, bundle)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := serve.NewTenantMux(cfg.Tenants)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Run(serve.NewMuxSource(mux, ops))
	if err != nil {
		t.Fatal(err)
	}
	return snap, ""
}

// TestServeTenantGoldenDeterminism is the tenant path's determinism
// contract, pinned to bytes on disk: the 3-tenant QoS scenario (sync
// refresh + adaptive controller) must produce the exact committed JSONL
// metric stream at shards=1, 2 and 8, and the controller must have converged
// every tenant to within its QoS band by the end of the run.
func TestServeTenantGoldenDeterminism(t *testing.T) {
	t.Parallel()
	const ops = 160 * 1024
	run := func(shards int) (*serve.Snapshot, []byte) {
		var jsonl bytes.Buffer
		cfg := tenantConfig(shards)
		cfg.Metrics = &jsonl
		snap, _ := runTenantScenario(t, cfg, ops)
		return snap, jsonl.Bytes()
	}
	snap1, out1 := run(1)

	golden := filepath.Join("testdata", "tenant_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, out1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(out1))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out1, want) {
		t.Errorf("shards=1 JSONL diverges from %s (%d vs %d bytes); if the change is intentional, regenerate with -update",
			golden, len(out1), len(want))
	}

	for _, shards := range []int{2, 8} {
		snapN, outN := run(shards)
		if !bytes.Equal(outN, want) {
			t.Errorf("shards=%d JSONL diverges from the golden file", shards)
		}
		if !reflect.DeepEqual(snap1, snapN) {
			t.Errorf("snapshots differ between shards=1 and shards=%d", shards)
		}
	}

	if snap1.Refreshes == 0 {
		t.Error("gamma's working-set shift did not trigger a sync refresh; the golden scenario lost its refresh coverage")
	}
	if snap1.Ops != ops {
		t.Errorf("ops = %d, want %d", snap1.Ops, ops)
	}
	// The elastic-share lever must have fired: gamma's grown working set is
	// unservable inside its static 200-block share, so the run needs at
	// least one deterministic transfer, visible both as a "share" record and
	// as final budgets away from the static split (alpha 512/beta 304/gamma
	// 200 blocks).
	if n := bytes.Count(out1, []byte(`"kind":"share"`)); n == 0 {
		t.Error("no share transfer in the golden run; the scenario lost its elastic-share coverage")
	}
	if a, g := snap1.Tenants[0].BudgetBlocks, snap1.Tenants[2].BudgetBlocks; a >= 512 || g <= 200 {
		t.Errorf("final budgets alpha=%d gamma=%d; expected capacity to have moved alpha→gamma", a, g)
	}
	for i := range snap1.Tenants {
		ts := &snap1.Tenants[i]
		if ts.QoS == nil {
			continue
		}
		if !ts.QoSValid {
			t.Errorf("tenant %s: controller never measured its QoS", ts.Tenant)
			continue
		}
		if !ts.WithinQoS {
			t.Errorf("tenant %s: did not converge to within its QoS band: %s=%.4g target %.4g (band %.2f)",
				ts.Tenant, ts.QoS.Metric, ts.QoSValue, ts.QoS.Target, ts.QoS.Band)
		}
	}
}

// TestServeTenantAccounting checks the per-tenant bookkeeping: tenant ops
// sum to the total, every tenant is served and admits bytes, capacity shares
// hold (residency never exceeds budget, budgets never over-commit the
// cache), and the multi-tenant metric stream carries the tenant record
// kinds.
func TestServeTenantAccounting(t *testing.T) {
	t.Parallel()
	var jsonl bytes.Buffer
	cfg := tenantConfig(4)
	cfg.Metrics = &jsonl
	snap, _ := runTenantScenario(t, cfg, 64*1024)

	var tenantOps, budgetTotal uint64
	for i := range snap.Tenants {
		ts := &snap.Tenants[i]
		tenantOps += ts.Ops
		budgetTotal += ts.BudgetBlocks
		if ts.Ops == 0 {
			t.Errorf("tenant %s served nothing", ts.Tenant)
		}
		if ts.BytesAdmitted == 0 {
			t.Errorf("tenant %s admitted nothing", ts.Tenant)
		}
		if ts.ResidentBlocks > ts.BudgetBlocks {
			t.Errorf("tenant %s resident %d exceeds budget %d", ts.Tenant, ts.ResidentBlocks, ts.BudgetBlocks)
		}
		if ts.Latency.Count != int64(ts.Ops) {
			t.Errorf("tenant %s latency samples %d != ops %d", ts.Tenant, ts.Latency.Count, ts.Ops)
		}
		if ts.CXL.Count != int64(ts.Ops) {
			t.Errorf("tenant %s cxl samples %d != ops %d", ts.Tenant, ts.CXL.Count, ts.Ops)
		}
		if ts.HBM.Count != int64(ts.Hits) {
			t.Errorf("tenant %s hbm samples %d != hits %d", ts.Tenant, ts.HBM.Count, ts.Hits)
		}
		if ts.SSD.Count != int64(ts.Ops-ts.Hits) {
			t.Errorf("tenant %s ssd samples %d != misses %d", ts.Tenant, ts.SSD.Count, ts.Ops-ts.Hits)
		}
	}
	if tenantOps != snap.Ops {
		t.Errorf("tenant ops sum %d != total %d", tenantOps, snap.Ops)
	}
	if cacheBlocks := uint64(4<<20) / trace.PageSize; budgetTotal > cacheBlocks {
		t.Errorf("budgets sum to %d blocks, over-committing the %d-block cache", budgetTotal, cacheBlocks)
	}
	// Arrival-rate proportions must hold: alpha gets 150k of 300k req/s.
	if frac := float64(snap.Tenants[0].Ops) / float64(snap.Ops); frac < 0.45 || frac > 0.55 {
		t.Errorf("alpha served %.3f of traffic, want ~0.5", frac)
	}
	for _, want := range []string{`"kind":"tenant-interval"`, `"kind":"control"`, `"kind":"tenant"`, `"kind":"summary"`} {
		if !bytes.Contains(jsonl.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %s records", want)
		}
	}
}

// TestServeSingleTenantStreamUnchanged: runs without Config.Tenants must not
// grow tenant record kinds, so PR 2's single-stream JSONL consumers are
// unaffected.
func TestServeSingleTenantStreamUnchanged(t *testing.T) {
	t.Parallel()
	var jsonl bytes.Buffer
	cfg := testConfig(2)
	cfg.Metrics = &jsonl
	snap, _ := runService(t, cfg, 16*1024, workload.OpenLoopConfig{RatePerSec: 2e6, Seed: 3})
	for _, kind := range []string{`"kind":"tenant-interval"`, `"kind":"tenant"`, `"kind":"control"`} {
		if bytes.Contains(jsonl.Bytes(), []byte(kind)) {
			t.Errorf("single-tenant metric stream contains %s records", kind)
		}
	}
	// The snapshot still accounts the anonymous stream as one tenant.
	if len(snap.Tenants) != 1 || snap.Tenants[0].Tenant != "default" {
		t.Fatalf("single-tenant snapshot tenants = %+v", snap.Tenants)
	}
	if snap.Tenants[0].Ops != snap.Ops {
		t.Errorf("default tenant ops %d != total %d", snap.Tenants[0].Ops, snap.Ops)
	}
}

func TestParseTenantSpecs(t *testing.T) {
	t.Parallel()
	valid := `[
	 {"name":"a","workload":"dlrm","seed":1,"rate":1e6,"share":0.5,
	  "qos":{"metric":"hit_ratio","target":0.7}},
	 {"name":"b","workload":"memtier","seed":2,"rate":5e5,"share":0.25}
	]`
	specs, err := serve.ParseTenantSpecs([]byte(valid))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].RatePerSec != 5e5 {
		t.Fatalf("parsed specs = %+v", specs)
	}

	bad := map[string]string{
		"unknown workload": `[{"name":"a","workload":"nope","rate":1,"share":0.5}]`,
		"no workload":      `[{"name":"a","rate":1,"share":0.5}]`,
		"empty name":       `[{"workload":"dlrm","rate":1,"share":0.5}]`,
		"duplicate name":   `[{"name":"a","workload":"dlrm","rate":1,"share":0.4},{"name":"a","workload":"dlrm","rate":1,"share":0.4}]`,
		"zero rate":        `[{"name":"a","workload":"dlrm","rate":0,"share":0.5}]`,
		"zero share":       `[{"name":"a","workload":"dlrm","rate":1,"share":0}]`,
		"shares over 1":    `[{"name":"a","workload":"dlrm","rate":1,"share":0.7},{"name":"b","workload":"dlrm","rate":1,"share":0.6}]`,
		"bad qos metric":   `[{"name":"a","workload":"dlrm","rate":1,"share":0.5,"qos":{"metric":"p42","target":1}}]`,
		"bad qos target":   `[{"name":"a","workload":"dlrm","rate":1,"share":0.5,"qos":{"metric":"hit_ratio","target":2}}]`,
		"unknown field":    `[{"name":"a","workload":"dlrm","rate":1,"share":0.5,"sahre":0.5}]`,
		"trailing data":    `[{"name":"a","workload":"dlrm","rate":1,"share":0.5}] garbage`,
		"not an array":     `{"name":"a"}`,
	}
	for name, in := range bad {
		if _, err := serve.ParseTenantSpecs([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}

func TestValidateWarmup(t *testing.T) {
	t.Parallel()
	tcfg := trace.TransformConfig{LenWindow: 32, LenAccessShot: 256, WarmupFrac: 0.2, TailFrac: 0.1}
	span := 32 * 256 // 8192
	// Global coverage: trimmed warm-up (70%) must reach one access shot.
	if err := serve.ValidateWarmup(span*2, tcfg, nil); err != nil {
		t.Errorf("ample warm-up rejected: %v", err)
	}
	if err := serve.ValidateWarmup(span, tcfg, nil); err == nil {
		t.Error("warm-up shorter than an access shot after trimming was accepted")
	}
	// Per tenant: a rate share below 1/len_window leaves unseen timestamp
	// stripes even when the global trace is long enough.
	starved := []serve.TenantSpec{
		{Name: "big", Workload: "dlrm", RatePerSec: 99e4, Share: 0.5},
		{Name: "tiny", Workload: "dlrm", RatePerSec: 1e4, Share: 0.5}, // 1% < 1/32
	}
	err := serve.ValidateWarmup(span*4, tcfg, starved)
	if err == nil {
		t.Fatal("starved tenant accepted")
	}
	if !strings.Contains(err.Error(), `"tiny"`) {
		t.Errorf("error does not name the starved tenant: %v", err)
	}
	balanced := []serve.TenantSpec{
		{Name: "big", Workload: "dlrm", RatePerSec: 6e5, Share: 0.5},
		{Name: "small", Workload: "dlrm", RatePerSec: 4e5, Share: 0.5},
	}
	if err := serve.ValidateWarmup(span*4, tcfg, balanced); err != nil {
		t.Errorf("balanced tenants rejected: %v", err)
	}
}

// p99Spec is a two-tenant run with p99_ns QoS on both tenants: "tight"
// carries a ceiling far below its natural p99 (a violation the controller
// relieves by loosening the tenant's admission threshold, admitting more),
// "loose" a ceiling far above it (comfortable, so its threshold tightens).
func p99Spec(t testing.TB, shards int) serve.Spec {
	t.Helper()
	spec, err := serve.ParseSpec([]byte(`{
	 "version": 1, "shards": 1, "partitions": 4, "ops": 16384, "warmup": 16000,
	 "batch": 1024, "report": 4,
	 "cache": {"size_mb": 1, "ways": 8},
	 "train": {"k": 4, "max_iters": 6, "max_samples": 2000, "lloyd_iters": 2, "shot": 128},
	 "control": {"every": 2, "step": 1.6, "min_mult": 0.125, "max_mult": 8},
	 "tenants": [
	  {"name": "tight",
	   "custom": {"Name": "tight-ws", "TotalPages": 300,
	    "Clusters": [{"CenterPage": 80, "Spread": 25}, {"CenterPage": 220, "Spread": 20}],
	    "WriteFrac": 0.2},
	   "seed": 1, "rate": 20000, "share": 0.5,
	   "qos": {"metric": "p99_ns", "target": 2000, "band": 0.1}},
	  {"name": "loose",
	   "custom": {"Name": "loose-ws", "TotalPages": 160,
	    "Clusters": [{"CenterPage": 60, "Spread": 20}], "WriteFrac": 0.3},
	   "seed": 2, "rate": 10000, "offset_pages": 65536, "share": 0.5,
	   "qos": {"metric": "p99_ns", "target": 1e9, "band": 0.1}}
	 ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = shards
	return spec
}

// TestP99QoSLever covers the only controller metric that reads a
// percentile: the p99_ns run is byte-identical at shards 1/2/8 and across a
// mid-run checkpoint (the controller's scratch histogram carries no state),
// and the first control step moves each tenant's multiplier the way its
// classification asks — loosening (mult < 1) the violated tenant, tightening
// (mult > 1) the comfortable one.
func TestP99QoSLever(t *testing.T) {
	t.Parallel()
	run := func(shards int, pauseAt int) []byte {
		var pre, post bytes.Buffer
		sess, err := serve.Open(p99Spec(t, shards), &pre)
		if err != nil {
			t.Fatal(err)
		}
		if pauseAt > 0 {
			if _, err := sess.Step(pauseAt); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := sess.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			if sess, err = serve.Resume(&ckpt, &post); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		return append(pre.Bytes(), post.Bytes()...)
	}
	want := run(1, 0)
	for _, shards := range []int{1, 2, 8} {
		if got := run(shards, 5); !bytes.Equal(got, want) {
			t.Errorf("shards=%d with a checkpoint at batch 5: JSONL diverges from the uninterrupted shards=1 run", shards)
		}
	}

	first := map[string]map[string]any{}
	for _, line := range bytes.Split(bytes.TrimSpace(want), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		name, _ := rec["tenant"].(string)
		if rec["kind"] == "control" && first[name] == nil {
			if rec["qos_metric"] != "p99_ns" {
				t.Fatalf("control record %s measures %v, want p99_ns", line, rec["qos_metric"])
			}
			first[name] = rec
		}
	}
	tight, loose := first["tight"], first["loose"]
	if tight == nil || loose == nil {
		t.Fatalf("missing control records: %v", first)
	}
	if tight["within_qos"] != false || tight["mult"].(float64) >= 1 {
		t.Errorf("violated p99 tenant: first control step %v, want within_qos false and mult < 1 (admit more)", tight)
	}
	if loose["within_qos"] != true || loose["mult"].(float64) <= 1 {
		t.Errorf("comfortable p99 tenant: first control step %v, want within_qos true and mult > 1 (admit less)", loose)
	}
}
