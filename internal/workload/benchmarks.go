package workload

import (
	"math/rand"

	"repro/internal/trace"
)

// The generators below all follow the structure the paper's Fig. 2 reports
// for its traces: access frequency over the address space is a mixture of
// stationary Gaussian clusters ("Spatial distribution can be fitted with
// different Gaussian functions"), while activity within those clusters
// varies over time in phases ("access frequency distribution is uneven in
// temporal"). Hot clusters stay at fixed addresses — what changes over time
// is how much traffic they receive — so a frequency model trained offline
// remains valid during replay, exactly the property ICGMM depends on.
//
// Each benchmark mixes three traffic classes:
//
//   - clustered: Gaussian-cluster traffic with per-phase activity weights
//     (the cacheable, GMM-learnable majority);
//   - tail: low-locality traffic over the whole footprint (uniform or
//     Zipf) that an LRU cache caches pointlessly, polluting the sets;
//   - scan: sequential sweeps (table scans, rehashing, GC marking) — the
//     classic LRU-killer.
//
// Footprints are expressed in 4 KiB pages against the paper's case-study
// cache of 64 MiB = 16384 pages (8-way). Mix fractions are calibrated so
// simulated LRU miss rates land near the paper's Fig. 6 bars and the GMM
// strategies beat LRU by comparable margins.

// mixConfig is the shared generator core.
type mixConfig struct {
	name string
	// totalPages is the benchmark footprint.
	totalPages uint64
	// clusters are the stationary hot blobs.
	clusters []cluster
	// phaseWeights[p][c] is the relative activity of cluster c in phase p;
	// rows are normalized internally.
	phaseWeights [][]float64
	// phaseLen is the phase length in requests.
	phaseLen int
	// tailFrac of requests go to the tail distribution.
	tailFrac float64
	// tailZipfS > 0 selects a Zipf tail with that skew; otherwise uniform.
	tailZipfS float64
	// scanFrac of requests advance a sequential sweep.
	scanFrac float64
	// scanStride is the sweep step in pages.
	scanStride uint64
	// burstEvery > 0 inserts a sequential scan burst (burstLen requests of
	// consecutive pages) every burstEvery requests — a GC mark phase or
	// reporting query that floods the cache with one-shot pages.
	burstEvery, burstLen int
	// pageRepeat issues this many consecutive requests to each chosen page
	// (host 64 B requests landing in the same 4 KiB page).
	pageRepeat int
	// writeFrac of requests are stores.
	writeFrac float64
}

// Name implements Generator.
func (m *mixConfig) Name() string { return m.name }

// Generate implements Generator: the first n records of the seed's stream.
func (m *mixConfig) Generate(n int, seed int64) trace.Trace {
	s := m.stream(seed)
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = s.next()
	}
	return tr
}

// mixStream is the mixture machine in pull form: one seed's unbounded record
// sequence, produced a record at a time so a consumer holds only the cursor,
// never a materialized trace.
type mixStream struct {
	m    *mixConfig
	rng  *rand.Rand
	ps   phaseSchedule
	cdfs [][]float64 // per-phase cluster sampling CDFs
	tail *zipfPages  // nil for a uniform tail

	i         uint64 // records produced so far
	scanPos   uint64
	curPage   uint64
	repeat    int
	burstLeft int
}

// stream starts the mixture machine for a seed.
func (m *mixConfig) stream(seed int64) *mixStream {
	rng := rand.New(rand.NewSource(seed))
	s := &mixStream{m: m, rng: rng, ps: *newPhaseSchedule(m.phaseLen, len(m.phaseWeights))}

	// Normalize phase weights into sampling CDFs.
	s.cdfs = make([][]float64, len(m.phaseWeights))
	for p, ws := range m.phaseWeights {
		cdf := make([]float64, len(ws))
		sum := 0.0
		for _, w := range ws {
			sum += w
		}
		acc := 0.0
		for i, w := range ws {
			acc += w / sum
			cdf[i] = acc
		}
		s.cdfs[p] = cdf
	}
	if m.tailZipfS > 0 {
		s.tail = newZipfPages(rng, 0, m.totalPages, m.tailZipfS, true)
	}
	return s
}

// next produces the stream's next record, its Time stamped with the record's
// index in the stream.
func (s *mixStream) next() trace.Record {
	m, rng := s.m, s.rng
	phase := s.ps.next()
	if m.burstEvery > 0 && s.i > 0 && s.i%uint64(m.burstEvery) == 0 {
		s.burstLeft = m.burstLen
	}
	switch {
	case s.burstLeft > 0:
		s.burstLeft--
		s.repeat = 0
		s.scanPos = (s.scanPos + m.scanStride) % m.totalPages
		s.curPage = s.scanPos
	case s.repeat > 0:
		s.repeat--
	default:
		r := rng.Float64()
		switch {
		case r < m.scanFrac:
			s.scanPos = (s.scanPos + m.scanStride) % m.totalPages
			s.curPage = s.scanPos
		case r < m.scanFrac+m.tailFrac:
			if s.tail != nil {
				s.curPage = s.tail.sample()
			} else {
				s.curPage = uint64(rng.Int63n(int64(m.totalPages)))
			}
		default:
			cdf := s.cdfs[phase]
			u := rng.Float64()
			ci := len(cdf) - 1
			for i, c := range cdf {
				if u <= c {
					ci = i
					break
				}
			}
			s.curPage = m.clusters[ci].sample(rng, m.totalPages-1)
		}
		if m.pageRepeat > 1 {
			s.repeat = m.pageRepeat - 1
		}
	}
	rec := pageRecord(rng, s.curPage, rng.Float64() < m.writeFrac)
	rec.Time = s.i
	s.i++
	return rec
}

// spreadClusters places k clusters evenly through the footprint with the
// given per-cluster spread (standard deviation, in pages).
func spreadClusters(k int, totalPages uint64, spread float64) []cluster {
	cs := make([]cluster, k)
	for i := range cs {
		cs[i] = cluster{
			center: uint64(i*2+1) * totalPages / uint64(2*k),
			spread: spread,
		}
	}
	return cs
}

// rotatingWeights builds phase weights where each phase concentrates
// activity on a subset of clusters (hotShare of traffic) while the rest
// share the remainder — stationary clusters, phased intensity.
func rotatingWeights(phases, clusters int, hotShare float64) [][]float64 {
	out := make([][]float64, phases)
	perPhase := clusters / phases
	if perPhase < 1 {
		perPhase = 1
	}
	for p := range out {
		w := make([]float64, clusters)
		for c := range w {
			w[c] = (1 - hotShare) / float64(clusters)
		}
		for j := 0; j < perPhase; j++ {
			w[(p*perPhase+j)%clusters] += hotShare / float64(perPhase)
		}
		out[p] = w
	}
	return out
}

// uniformWeights gives every cluster equal stationary activity.
func uniformWeights(phases, clusters int) [][]float64 {
	out := make([][]float64, phases)
	for p := range out {
		w := make([]float64, clusters)
		for c := range w {
			w[c] = 1
		}
		out[p] = w
	}
	return out
}

// Parsec models a PARSEC-style shared-memory HPC run: a compact set of hot
// regions (shared structures per pipeline stage) that phase activity walks
// over, with a light strided scan (data loading). The Fig. 6 target is a
// low LRU miss rate (~1.5%) where GMM's smart eviction protects the hot
// regions from scan pollution.
type Parsec struct{ mixConfig }

// NewParsec returns the default parsec configuration.
func NewParsec() *Parsec {
	total := uint64(1 << 16) // 256 MiB footprint
	return &Parsec{mixConfig{
		name:         "parsec",
		totalPages:   total,
		clusters:     spreadClusters(6, total/3, 540), // hot regions in the low third
		phaseWeights: rotatingWeights(3, 6, 0.35),
		phaseLen:     60000,
		tailFrac:     0.002,
		scanFrac:     0.002,
		scanStride:   3,
		burstEvery:   120000,
		burstLen:     1024,
		pageRepeat:   4,
		writeFrac:    0.25,
	}}
}

// Memtier models a memtier_benchmark-driven key-value store: most traffic
// on popular key clusters, a Zipf long tail over the keyspace, and expiry
// sweeps.
type Memtier struct{ mixConfig }

// NewMemtier returns the default memtier configuration.
func NewMemtier() *Memtier {
	total := uint64(1 << 17) // 512 MiB keyspace
	return &Memtier{mixConfig{
		name:         "memtier",
		totalPages:   total,
		clusters:     spreadClusters(8, total/6, 560),
		phaseWeights: rotatingWeights(4, 8, 0.15),
		phaseLen:     70000,
		tailFrac:     0.018,
		scanFrac:     0.004,
		scanStride:   1,
		burstEvery:   100000,
		burstLen:     2048,
		pageRepeat:   2,
		writeFrac:    0.1,
	}}
}

// Hashmap models the synthetic hashmap benchmark of the CXL-SSD study:
// bucket lookups concentrated on hash-chain islands plus uniform probe
// noise and occasional rehash bursts sweeping the table.
type Hashmap struct{ mixConfig }

// NewHashmap returns the default hashmap configuration.
func NewHashmap() *Hashmap {
	total := uint64(1 << 16) // 256 MiB table
	return &Hashmap{mixConfig{
		name:         "hashmap",
		totalPages:   total,
		clusters:     spreadClusters(8, total/4, 480),
		phaseWeights: uniformWeights(1, 8),
		phaseLen:     1 << 30, // stationary
		tailFrac:     0.010,
		scanFrac:     0.002,
		scanStride:   1,
		burstEvery:   110000,
		burstLen:     2048,
		pageRepeat:   2,
		writeFrac:    0.3,
	}}
}

// Heap models the synthetic heap benchmark: allocator generations at fixed
// arena offsets whose activity rotates with allocation phases, plus GC-style
// mark sweeps over the arena.
type Heap struct{ mixConfig }

// NewHeap returns the default heap configuration.
func NewHeap() *Heap {
	total := uint64(1 << 16) // 256 MiB arena
	return &Heap{mixConfig{
		name:         "heap",
		totalPages:   total,
		clusters:     spreadClusters(6, total/3, 560),
		phaseWeights: rotatingWeights(3, 6, 0.3),
		phaseLen:     80000,
		tailFrac:     0.004,
		scanFrac:     0.003,
		scanStride:   2,
		burstEvery:   130000,
		burstLen:     1536,
		pageRepeat:   3,
		writeFrac:    0.35,
	}}
}

// Sysbench models sysbench OLTP: hot B-tree index clusters, a Zipf row
// tail over a large table, and reporting-query scans.
type Sysbench struct{ mixConfig }

// NewSysbench returns the default sysbench configuration.
func NewSysbench() *Sysbench {
	total := uint64(1 << 17) // 512 MiB of rows + index
	return &Sysbench{mixConfig{
		name:         "sysbench",
		totalPages:   total,
		clusters:     spreadClusters(6, total/8, 640),
		phaseWeights: rotatingWeights(3, 6, 0.3),
		phaseLen:     90000,
		tailFrac:     0.025,
		scanFrac:     0.005,
		scanStride:   1,
		burstEvery:   90000,
		burstLen:     3072,
		pageRepeat:   2,
		writeFrac:    0.3,
	}}
}

// Stream models the STREAM triad kernel: hot control/reduction pages plus
// long sequential sweeps over three arrays larger than the cache. The
// sweeps give the high baseline miss rate (~13% under LRU in Fig. 6); the
// GMM wins by refusing to let one-pass array pages displace the control
// set.
type Stream struct{ mixConfig }

// NewStream returns the default stream configuration.
func NewStream() *Stream {
	total := uint64(56 << 10) // 224 MiB: control region + three arrays
	return &Stream{mixConfig{
		name:       "stream",
		totalPages: total,
		// Control region: accumulators, loop state, lookup tables.
		clusters:     []cluster{{center: 8192, spread: 2600}},
		phaseWeights: uniformWeights(1, 1),
		phaseLen:     1 << 30,
		tailFrac:     0,
		scanFrac:     0,
		scanStride:   1,
		burstEvery:   40, // the triad sweeps: 4 one-touch pages every 40 requests
		burstLen:     4,
		pageRepeat:   3,
		writeFrac:    0.3,
	}}
}

// DLRM models recommendation-inference embedding gathers: per-table popular
// rows (stationary clusters, intensity shifting with traffic mix) over a
// footprint far larger than the cache, plus a heavy Zipf tail of cold rows
// — the structure behind dlrm's ~37% LRU miss rate in Fig. 6.
type DLRM struct{ mixConfig }

// NewDLRM returns the default dlrm configuration.
func NewDLRM() *DLRM {
	total := uint64(1 << 18) // 1 GiB of embedding tables
	return &DLRM{mixConfig{
		name:         "dlrm",
		totalPages:   total,
		clusters:     spreadClusters(8, total, 750),
		phaseWeights: rotatingWeights(2, 8, 0.2),
		phaseLen:     100000,
		tailFrac:     0.10, // the long tail of one-shot rows
		scanFrac:     0,
		scanStride:   1,
		pageRepeat:   1,
		writeFrac:    0.02,
	}}
}
