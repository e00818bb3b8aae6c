package workload

import "errors"

// Custom lets library users compose their own benchmark from the same
// building blocks the seven paper workloads use: stationary Gaussian
// clusters with per-phase activity, a uniform or Zipf tail, steady scans
// and periodic scan bursts. It is the public face of the internal mixture
// machine.
type Custom struct {
	mixConfig
}

// CustomConfig describes a custom workload.
type CustomConfig struct {
	// Name labels the generator in reports.
	Name string
	// TotalPages is the footprint in 4 KiB pages.
	TotalPages uint64
	// Clusters are the stationary hot blobs: (center page, spread) pairs.
	Clusters []ClusterSpec
	// PhaseWeights[p][c] is cluster c's relative activity in phase p; nil
	// means one stationary phase with equal weights.
	PhaseWeights [][]float64
	// PhaseLen is the phase length in requests.
	PhaseLen int
	// TailFrac of requests go to the tail; TailZipfS > 0 makes it Zipf.
	TailFrac  float64
	TailZipfS float64
	// ScanFrac of requests advance a strided sweep.
	ScanFrac   float64
	ScanStride uint64
	// BurstEvery/BurstLen insert periodic sequential scan bursts.
	BurstEvery, BurstLen int
	// PageRepeat issues consecutive requests per chosen page.
	PageRepeat int
	// WriteFrac of requests are stores.
	WriteFrac float64
}

// ClusterSpec is one Gaussian hot region.
type ClusterSpec struct {
	CenterPage uint64
	Spread     float64
}

// NewCustom validates the config and builds the generator.
func NewCustom(cfg CustomConfig) (*Custom, error) {
	if cfg.Name == "" {
		return nil, errors.New("workload: custom generator needs a name")
	}
	if cfg.TotalPages == 0 {
		return nil, errors.New("workload: zero footprint")
	}
	if len(cfg.Clusters) == 0 && cfg.TailFrac+cfg.ScanFrac <= 0 && cfg.BurstEvery <= 0 {
		return nil, errors.New("workload: no traffic sources configured")
	}
	if cfg.TailFrac < 0 || cfg.ScanFrac < 0 || cfg.TailFrac+cfg.ScanFrac > 1 {
		return nil, errors.New("workload: invalid traffic fractions")
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac > 1 {
		return nil, errors.New("workload: invalid write fraction")
	}
	clusters := make([]cluster, len(cfg.Clusters))
	for i, c := range cfg.Clusters {
		if c.CenterPage >= cfg.TotalPages {
			return nil, errors.New("workload: cluster center outside footprint")
		}
		clusters[i] = cluster{center: c.CenterPage, spread: c.Spread}
	}
	// Some cluster must exist for the phase machinery; synthesize a
	// degenerate one when the workload is pure tail/scan.
	if len(clusters) == 0 {
		clusters = []cluster{{center: 0, spread: 1}}
	}
	weights := cfg.PhaseWeights
	if len(weights) == 0 {
		weights = uniformWeights(1, len(clusters))
	}
	for p, row := range weights {
		if len(row) != len(clusters) {
			return nil, errors.New("workload: phase weight row length mismatch")
		}
		sum := 0.0
		for _, w := range row {
			if w < 0 {
				return nil, errors.New("workload: negative phase weight")
			}
			sum += w
		}
		if sum <= 0 {
			return nil, errors.New("workload: phase has zero total weight")
		}
		_ = p
	}
	phaseLen := cfg.PhaseLen
	if phaseLen <= 0 {
		phaseLen = 1 << 30
	}
	stride := cfg.ScanStride
	if stride == 0 {
		stride = 1
	}
	repeat := cfg.PageRepeat
	if repeat <= 0 {
		repeat = 1
	}
	return &Custom{mixConfig{
		name:         cfg.Name,
		totalPages:   cfg.TotalPages,
		clusters:     clusters,
		phaseWeights: weights,
		phaseLen:     phaseLen,
		tailFrac:     cfg.TailFrac,
		tailZipfS:    cfg.TailZipfS,
		scanFrac:     cfg.ScanFrac,
		scanStride:   stride,
		burstEvery:   cfg.BurstEvery,
		burstLen:     cfg.BurstLen,
		pageRepeat:   repeat,
		writeFrac:    cfg.WriteFrac,
	}}, nil
}
