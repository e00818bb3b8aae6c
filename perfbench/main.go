// Command perfbench is the repository benchmark. It runs one workload per
// invocation, measures it for --seconds, checks the outputs, and prints one
// JSON result as the last line of standard output:
//
//	go run . --workload serve-single --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing; with --trace 1 it runs the workload again with spans recorded
// around every session call and replays the workload's own inputs through
// each layer's public functions to report the per-layer metrics. README.md
// defines every metric and the layer each per-layer metric belongs to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts attempted and failed operations: every call into the program
// that can return an error, and every correctness check.
type tally struct {
	attempted, failed int
	errs              []string
}

// op records one attempted operation; a non-nil err counts it as failed.
func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
		}
		return false
	}
	return true
}

// check records one correctness check.
func (t *tally) check(what string, ok bool) bool {
	if ok {
		return t.op(what, nil)
	}
	return t.op(what, fmt.Errorf("check failed"))
}

// runInfo is the environment a result was measured on, printed as a JSON
// line before the result.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      int       `json:"trace"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	Ops        uint64    `json:"ops"`
	RatePerSec float64   `json:"open_loop_rate_per_s,omitempty"`
	Rounds     int       `json:"rounds,omitempty"`
	Tail       *tailInfo `json:"tail,omitempty"`
	Wall       *wallInfo `json:"wall,omitempty"`
	SpansFile  string    `json:"spans_file,omitempty"`
	Errors     []string  `json:"errors,omitempty"`
}

// tailInfo records which percentile batch_cpu_tail_ms reports.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"samples_beyond"`
	Samples    int     `json:"samples_per_round"`
}

// wallInfo records the wall-time counterparts of the CPU-time throughput and
// median batch, for reference: wall time also counts time the process
// waited for a core, so it is not a gated metric.
type wallInfo struct {
	OpsPerSec  float64 `json:"ops_per_s"`
	BatchP50Ms float64 `json:"batch_p50_ms,omitempty"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func main() {
	name := flag.String("workload", "serve-single", "workload: serve-single, serve-tenants or paper-grid")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every spec and Options seed derives from it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	info := &runInfo{
		Workload:   *name,
		Seed:       *seed,
		Trace:      *traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	t := &tally{}
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]float64
	var err error
	if *traced == 1 {
		metrics, err = runTraced(*name, *seed, t, info)
	} else {
		metrics, err = runEndToEnd(*name, *seed, budget, t, info)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		t.check("metric "+d.Name+" reported and finite", ok && !math.IsNaN(v) && !math.IsInf(v, 0))
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	info.Errors = t.errs

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// runEndToEnd dispatches the untraced measurement.
func runEndToEnd(name string, seed int64, budget time.Duration, t *tally, info *runInfo) (map[string]float64, error) {
	switch name {
	case "serve-single":
		return serveEndToEnd(serveSingleSpecs(seed), 0, budget, t, info)
	case "serve-tenants":
		specs, err := serveTenantsSpecs(seed)
		if err != nil {
			return nil, err
		}
		return serveEndToEnd(specs, tenantsCheckpointEvery, budget, t, info)
	case "paper-grid":
		return gridEndToEnd(seed, budget, t, info)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runTraced dispatches the traced per-layer run.
func runTraced(name string, seed int64, t *tally, info *runInfo) (map[string]float64, error) {
	switch name {
	case "serve-single":
		return serveTraced(name, seed, serveSingleSpecs(seed)[0], 0, t, info)
	case "serve-tenants":
		specs, err := serveTenantsSpecs(seed)
		if err != nil {
			return nil, err
		}
		return serveTraced(name, seed, specs[0], tenantsCheckpointEvery, t, info)
	case "paper-grid":
		return gridTraced(seed, t, info)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
