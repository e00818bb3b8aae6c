// Package workload synthesizes the seven trace benchmarks the paper
// evaluates on (Sec. 5.1): dlrm, parsec, stream, memtier, sysbench from
// real-world domains, plus the synthetic hashmap and heap workloads of the
// CXL-SSD study the paper builds on.
//
// The original traces were collected from live applications with a kernel
// tracing tool; that tooling and those applications are not available here,
// so each generator reproduces the published qualitative structure instead:
// spatial access frequency that is a mixture of Gaussian clusters, and
// temporal phase behaviour where different address regions are hot at
// different times (the two Fig. 2 observations that motivate a 2-D GMM).
// All generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/trace"
)

// Generator produces a synthetic memory-access trace. Every generator is a
// configuration of the package's mixture machine (the seven paper benchmarks
// and Custom), so the interface is sealed: streams pull records from the
// machine directly instead of materializing traces.
type Generator interface {
	// Name is the benchmark name as it appears in the paper's tables.
	Name() string
	// Generate produces n records using the given seed: the first n records
	// of the seed's stream, with Time set to the record index.
	Generate(n int, seed int64) trace.Trace
	// stream starts the seed's unbounded record stream.
	stream(seed int64) *mixStream
}

// Registry returns all seven paper benchmarks in the order the paper's
// Table 1 lists them.
func Registry() []Generator {
	return []Generator{
		NewParsec(),
		NewMemtier(),
		NewHashmap(),
		NewHeap(),
		NewSysbench(),
		NewStream(),
		NewDLRM(),
	}
}

// ByName returns the named generator, or an error listing valid names.
func ByName(name string) (Generator, error) {
	for _, g := range Registry() {
		if g.Name() == name {
			return g, nil
		}
	}
	names := make([]string, 0, 7)
	for _, g := range Registry() {
		names = append(names, g.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown benchmark %q (valid: %v)", name, names)
}

// pageRecord builds a record touching the given page with a random offset
// inside it, mimicking host 64 B cacheline-granularity requests landing in a
// 4 KiB page.
func pageRecord(rng *rand.Rand, page uint64, write bool) trace.Record {
	op := trace.Read
	if write {
		op = trace.Write
	}
	offset := uint64(rng.Intn(trace.PageSize/64)) * 64
	return trace.Record{Op: op, Addr: page<<trace.PageShift | offset}
}

// cluster is a Gaussian blob of pages: the spatial building block behind the
// Fig. 2 distributions.
type cluster struct {
	center uint64  // center page index
	spread float64 // standard deviation in pages
}

// sample draws a page from the cluster, clamped to [0, maxPage].
func (c cluster) sample(rng *rand.Rand, maxPage uint64) uint64 {
	p := float64(c.center) + rng.NormFloat64()*c.spread
	if p < 0 {
		p = 0
	}
	if p > float64(maxPage) {
		p = float64(maxPage)
	}
	return uint64(p)
}

// zipfPages draws from a Zipf distribution over [base, base+span) with the
// given skew (s > 1). Rank-to-page mapping is scrambled by a fixed
// multiplicative hash so the hot pages are spread through the region rather
// than packed at its start, as in a real key-value store.
type zipfPages struct {
	base, span uint64
	z          *rand.Zipf
	scramble   bool
}

func newZipfPages(rng *rand.Rand, base, span uint64, s float64, scramble bool) *zipfPages {
	if span == 0 {
		span = 1
	}
	return &zipfPages{
		base:     base,
		span:     span,
		z:        rand.NewZipf(rng, s, 1, span-1),
		scramble: scramble,
	}
}

func (zp *zipfPages) sample() uint64 {
	rank := zp.z.Uint64()
	if zp.scramble {
		// Fibonacci-hash permutation of ranks within the span.
		rank = (rank * 11400714819323198485) % zp.span
	}
	return zp.base + rank
}

// phaseSchedule rotates through phases of fixed length, giving traces the
// temporal block structure visible in the right-hand plots of Fig. 2.
type phaseSchedule struct {
	length int
	count  int
	pos    int
	cur    int
}

func newPhaseSchedule(length, count int) *phaseSchedule {
	if length <= 0 {
		length = 1
	}
	if count <= 0 {
		count = 1
	}
	return &phaseSchedule{length: length, count: count}
}

// next advances one request and returns the current phase index.
func (ps *phaseSchedule) next() int {
	phase := ps.cur
	ps.pos++
	if ps.pos >= ps.length {
		ps.pos = 0
		ps.cur = (ps.cur + 1) % ps.count
	}
	return phase
}
