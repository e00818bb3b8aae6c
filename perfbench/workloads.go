package main

import (
	_ "embed"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Seeds recorded for re-checking claims: the default used while writing a
// change, and a held-out seed that is not.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

const (
	singleRate   = 10000 // serve-single open-loop arrival rate, req/s
	singleOps    = 1 << 20
	gridRequests = 120000 // paper-grid trace length per benchmark
	gridK        = 64
	gridWorkers  = 2
	// tenantsCheckpointEvery is serve-tenants' periodic checkpoint cadence
	// in batches (Session.CheckpointEvery).
	tenantsCheckpointEvery = 16
	// resumeTailBatches is how many batches before the end the explicit
	// Checkpoint → Resume is taken.
	resumeTailBatches = 8
	// singleMixes and tenantsMixes are how many differently seeded sessions
	// one serve-single and one serve-tenants pass run.
	singleMixes  = 4
	tenantsMixes = 32
)

// derive maps the workload seed to the seed of one consumer, so every spec
// and Options seed is a pure function of --seed.
func derive(seed int64, consumer uint64) int64 { return engine.DeriveSeed(seed, consumer) }

// serveSingleSpec is the serve-single workload: one parsec stream with a
// mid-run working-set drift that triggers a synchronous EM refit, flat
// timing, K=16 over 16 partitions on 2 shards. The open-loop rate is one the
// modelled device keeps up with (mean sojourn ~0.5 ms; 100k req/s and above
// builds a backlog that keeps growing), and the 16 MiB cache is smaller than
// the working set (hit ratio ~0.28).
func serveSingleSpec(seed int64) serve.Spec {
	return serve.Spec{
		Version:    serve.SpecVersion,
		Shards:     2,
		Partitions: 16,
		Ops:        singleOps,
		Cache:      &serve.CacheSpec{SizeMB: 16},
		Train:      &serve.TrainSpec{K: 16, Seed: derive(seed, 1)},
		Workload:   &serve.WorkloadSpec{Name: "parsec", Seed: derive(seed, 2), Rate: singleRate, Drift: true},
		Refresh:    &serve.RefreshSpec{Mode: "sync"},
		Device:     &serve.DeviceSpec{Timing: "flat"},
	}
}

// tenantsTemplate is the committed scenario spec (tenant churn, diurnal
// rate, phase swap, closed-loop clients, LSTM shadow, share-adapting QoS
// controller) with the dataflow device block and a queue-depth QoS target;
// the seeds are filled in from --seed.
//
//go:embed specs/serve-tenants.json
var tenantsTemplate []byte

// serveTenantsSpec is one serve-tenants session spec.
func serveTenantsSpec(seed int64) (serve.Spec, error) {
	s, err := serve.ParseSpec(tenantsTemplate)
	if err != nil {
		return serve.Spec{}, fmt.Errorf("serve-tenants template: %w", err)
	}
	s.Train.Seed = derive(seed, 1)
	for i := range s.Tenants {
		s.Tenants[i].Seed = derive(seed, uint64(10+i))
	}
	return s, s.Validate()
}

// serveSingleSpecs is the serve-single workload: singleMixes session specs,
// each with its own derived seed. A session's cost depends on its seed: with
// one stream per run, the median step cost of one --seed sat 18% above that
// of the others in every repeat, so a pass serves several streams.
func serveSingleSpecs(seed int64) []serve.Spec {
	specs := make([]serve.Spec, singleMixes)
	for j := range specs {
		specs[j] = serveSingleSpec(derive(seed, uint64(200+j)))
	}
	return specs
}

// serveTenantsSpecs is the serve-tenants workload: tenantsMixes session
// specs, each with its own derived seed. One mix is not enough: how much
// work a session does depends on its seed through the one-epoch LSTM
// shadow, whose admission rate is close to random (a shadow that admits
// nothing scores every request), so a single mix's Step-loop cost varies
// about 2x from seed to seed, with a standard deviation near 20% of the
// mean. The mean over 32 mixes varies by about 4% from one --seed to the
// next.
func serveTenantsSpecs(seed int64) ([]serve.Spec, error) {
	specs := make([]serve.Spec, tenantsMixes)
	for j := range specs {
		s, err := serveTenantsSpec(derive(seed, uint64(100+j)))
		if err != nil {
			return nil, err
		}
		specs[j] = s
	}
	return specs, nil
}

// gridOptions is the paper-grid workload: the seven paper benchmarks at K=64.
func gridOptions(seed int64, workers int) experiments.Options {
	o := experiments.DefaultOptions()
	o.Requests = gridRequests
	o.Seed = derive(seed, 1)
	o.Config.Train.K = gridK
	o.Config.Workers = workers
	return o
}

// gridServeSpec serves paper-grid's first benchmark through a Session at the
// grid's K, for the serve-layer numbers of paper-grid's traced run (its
// end-to-end run never opens a session).
func gridServeSpec(seed int64) serve.Spec {
	o := gridOptions(seed, gridWorkers)
	return serve.Spec{
		Version:    serve.SpecVersion,
		Shards:     gridWorkers,
		Partitions: 16,
		Ops:        uint64(o.Requests),
		Warmup:     100000,
		Batch:      4096,
		Train:      &serve.TrainSpec{K: gridK, Seed: o.Seed},
		Workload:   &serve.WorkloadSpec{Name: workload.Registry()[0].Name(), Seed: o.Seed, Rate: singleRate, Drift: true},
		Refresh:    &serve.RefreshSpec{Mode: "sync"},
	}
}

// coreConfigFor is the offline replay configuration matching a serve spec's
// cache, training and transform settings.
func coreConfigFor(cfg serve.Config) core.Config {
	c := core.DefaultConfig()
	c.Cache = cfg.Cache
	c.Train = cfg.Train
	c.Transform = cfg.Transform
	c.Workers = 1
	return c
}
