// Package lstm implements the LSTM-based cache policy engine the paper
// compares against in Table 2 (the DeepCache/Glider family): a stacked
// 3-layer LSTM with hidden dimension 128 consuming sequences of 32
// (page, timestamp) inputs and regressing the future access frequency.
//
// It is a complete implementation — forward pass, backpropagation through
// time, Adam optimizer — not a cost stub: the Table 2 latency and resource
// ratios are derived from the same per-layer arithmetic this code performs,
// and the paper's observation that a lightweight LSTM struggles to converge
// on long traces can be reproduced by training it.
package lstm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Config shapes the network. The paper's baseline uses 3 layers, hidden
// dimension 128 and input sequence length 32.
type Config struct {
	InputDim  int
	HiddenDim int
	Layers    int
	SeqLen    int
}

// PaperBaseline returns the Table 2 comparison network.
func PaperBaseline() Config {
	return Config{InputDim: 2, HiddenDim: 128, Layers: 3, SeqLen: 32}
}

// Validate checks the shape.
func (c Config) Validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.Layers <= 0 || c.SeqLen <= 0 {
		return errors.New("lstm: non-positive dimension")
	}
	return nil
}

// ParamCount returns the number of trainable parameters: per layer the
// four gates' input and recurrent weights plus biases, and the final
// regression head.
func (c Config) ParamCount() int {
	total := 0
	in := c.InputDim
	for l := 0; l < c.Layers; l++ {
		total += 4 * c.HiddenDim * (in + c.HiddenDim + 1)
		in = c.HiddenDim
	}
	total += c.HiddenDim + 1 // linear head
	return total
}

// MACsPerInference returns the multiply-accumulate count of one full
// sequence inference, the quantity behind the Table 2 latency model.
func (c Config) MACsPerInference() int {
	perStep := 0
	in := c.InputDim
	for l := 0; l < c.Layers; l++ {
		perStep += 4 * c.HiddenDim * (in + c.HiddenDim)
		in = c.HiddenDim
	}
	return c.SeqLen*perStep + c.HiddenDim
}

// layer holds one LSTM layer's parameters. Gates are ordered i, f, g, o.
// Weights are stored row-major: w[gate*H+j] is the row producing hidden
// unit j of that gate.
type layer struct {
	inDim, hidden int
	// wx: [4*hidden][inDim], wh: [4*hidden][hidden], b: [4*hidden]
	wx, wh [][]float64
	b      []float64
}

func newLayer(inDim, hidden int, rng *rand.Rand) *layer {
	l := &layer{inDim: inDim, hidden: hidden}
	scale := 1 / math.Sqrt(float64(inDim+hidden))
	l.wx = randMat(4*hidden, inDim, scale, rng)
	l.wh = randMat(4*hidden, hidden, scale, rng)
	l.b = make([]float64, 4*hidden)
	// Forget-gate bias starts at 1, the standard trick for gradient flow.
	for j := 0; j < hidden; j++ {
		l.b[hidden+j] = 1
	}
	return l
}

func randMat(rows, cols int, scale float64, rng *rand.Rand) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64() * scale
		}
	}
	return m
}

// Network is the stacked LSTM with a linear regression head.
type Network struct {
	cfg    Config
	layers []*layer
	// Head: y = wy . h + by.
	wy []float64
	by float64
}

// New builds a network with Xavier-style initialization.
func New(cfg Config, seed int64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{cfg: cfg}
	in := cfg.InputDim
	for l := 0; l < cfg.Layers; l++ {
		n.layers = append(n.layers, newLayer(in, cfg.HiddenDim, rng))
		in = cfg.HiddenDim
	}
	n.wy = make([]float64, cfg.HiddenDim)
	scale := 1 / math.Sqrt(float64(cfg.HiddenDim))
	for i := range n.wy {
		n.wy[i] = rng.NormFloat64() * scale
	}
	return n, nil
}

// Config returns the network shape.
func (n *Network) Config() Config { return n.cfg }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Scratch is the working memory of one inference: every layer's hidden and
// cell state plus the gate pre-activation buffer. A Network is read-only
// during inference, so goroutines may share one as long as each owns its
// Scratch; reusing a Scratch across inferences is what keeps inference free
// of allocation.
type Scratch struct {
	h, c [][]float64 // per layer
	pre  []float64   // 4*hidden gate pre-activations
}

// NewScratch allocates inference scratch shaped for the network.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{
		h:   make([][]float64, len(n.layers)),
		c:   make([][]float64, len(n.layers)),
		pre: make([]float64, 4*n.cfg.HiddenDim),
	}
	for li := range n.layers {
		s.h[li] = make([]float64, n.cfg.HiddenDim)
		s.c[li] = make([]float64, n.cfg.HiddenDim)
	}
	return s
}

// stepCache stores the intermediate activations BPTT needs.
type stepCache struct {
	x          []float64 // layer input
	i, f, g, o []float64 // gate activations
	cPrev, c   []float64
	hPrev, h   []float64
	tanhC      []float64
}

// step advances one layer by one timestep in place: h and c hold the
// previous hidden and cell state on entry and the next on exit; pre is a
// 4*hidden scratch buffer. When cache is non-nil it records the activations
// BPTT needs. This is the one gate kernel inference and training share.
func (l *layer) step(x, h, c, pre []float64, cache *stepCache) {
	H := l.hidden
	// Four rows at a time (4*H always divides by 4): each row keeps its own
	// accumulator and summation order — bias, input terms, recurrent terms,
	// each in index order — so the result is bit-identical to one row at a
	// time, while the four independent add chains overlap in the pipeline.
	for r := 0; r < 4*H; r += 4 {
		s0, s1, s2, s3 := l.b[r], l.b[r+1], l.b[r+2], l.b[r+3]
		x0, x1, x2, x3 := l.wx[r][:len(x)], l.wx[r+1][:len(x)], l.wx[r+2][:len(x)], l.wx[r+3][:len(x)]
		for j, xv := range x {
			s0 += x0[j] * xv
			s1 += x1[j] * xv
			s2 += x2[j] * xv
			s3 += x3[j] * xv
		}
		h0, h1, h2, h3 := l.wh[r][:len(h)], l.wh[r+1][:len(h)], l.wh[r+2][:len(h)], l.wh[r+3][:len(h)]
		for j, hv := range h {
			s0 += h0[j] * hv
			s1 += h1[j] * hv
			s2 += h2[j] * hv
			s3 += h3[j] * hv
		}
		pre[r], pre[r+1], pre[r+2], pre[r+3] = s0, s1, s2, s3
	}
	if cache != nil {
		*cache = stepCache{
			x: append([]float64(nil), x...),
			i: make([]float64, H), f: make([]float64, H),
			g: make([]float64, H), o: make([]float64, H),
			cPrev: append([]float64(nil), c...),
			hPrev: append([]float64(nil), h...),
			tanhC: make([]float64, H),
		}
	}
	for j := 0; j < H; j++ {
		ig := sigmoid(pre[j])
		fg := sigmoid(pre[H+j])
		gg := math.Tanh(pre[2*H+j])
		og := sigmoid(pre[3*H+j])
		cj := fg*c[j] + ig*gg
		tc := math.Tanh(cj)
		c[j] = cj
		h[j] = og * tc
		if cache != nil {
			cache.i[j], cache.f[j], cache.g[j], cache.o[j] = ig, fg, gg, og
			cache.tanhC[j] = tc
		}
	}
	if cache != nil {
		cache.c = append([]float64(nil), c...)
		cache.h = append([]float64(nil), h...)
	}
}

// run feeds a sequence through the stack from zero state, xs holding
// SeqLen inputs of InputDim values each in chronological order, and returns
// the head's prediction. caches, when non-nil, receives every layer's
// per-step activations (caches[layer][t]).
func (n *Network) run(s *Scratch, xs []float64, caches [][]stepCache) float64 {
	for li := range n.layers {
		clear(s.h[li])
		clear(s.c[li])
	}
	d := n.cfg.InputDim
	for t := 0; t < n.cfg.SeqLen; t++ {
		cur := xs[t*d : (t+1)*d]
		for li, l := range n.layers {
			var cache *stepCache
			if caches != nil {
				cache = &caches[li][t]
			}
			l.step(cur, s.h[li], s.c[li], s.pre, cache)
			cur = s.h[li]
		}
	}
	out := n.by
	top := s.h[len(n.layers)-1]
	for j, w := range n.wy {
		out += w * top[j]
	}
	return out
}

// Infer runs one sequence through the network using caller-owned scratch
// and returns the scalar prediction. xs holds cfg.SeqLen inputs of
// cfg.InputDim values each, flattened in chronological order; s must come
// from this network's NewScratch. Infer allocates nothing.
func (n *Network) Infer(s *Scratch, xs []float64) (float64, error) {
	if len(xs) != n.cfg.SeqLen*n.cfg.InputDim {
		return 0, fmt.Errorf("lstm: flattened sequence has %d values, want %d", len(xs), n.cfg.SeqLen*n.cfg.InputDim)
	}
	return n.run(s, xs, nil), nil
}

// Forward runs a full sequence and returns the scalar prediction. seq must
// have length cfg.SeqLen, each element length cfg.InputDim. It is Infer on
// freshly allocated scratch; callers that infer repeatedly should own a
// Scratch and call Infer.
func (n *Network) Forward(seq [][]float64) (float64, error) {
	xs, err := n.flatten(seq)
	if err != nil {
		return 0, err
	}
	return n.run(n.NewScratch(), xs, nil), nil
}

// flatten checks seq's shape and lays it out the way Infer reads it.
func (n *Network) flatten(seq [][]float64) ([]float64, error) {
	if len(seq) != n.cfg.SeqLen {
		return nil, fmt.Errorf("lstm: sequence length %d, want %d", len(seq), n.cfg.SeqLen)
	}
	xs := make([]float64, 0, n.cfg.SeqLen*n.cfg.InputDim)
	for _, x := range seq {
		if len(x) != n.cfg.InputDim {
			return nil, fmt.Errorf("lstm: input dim %d, want %d", len(x), n.cfg.InputDim)
		}
		xs = append(xs, x...)
	}
	return xs, nil
}
