package lstm

import (
	"errors"
	"fmt"
	"math"
)

// grads mirrors the parameter layout of the network.
type grads struct {
	wx, wh [][][]float64 // per layer
	b      [][]float64
	wy     []float64
	by     float64
}

func newGrads(n *Network) *grads {
	g := &grads{wy: make([]float64, len(n.wy))}
	for _, l := range n.layers {
		g.wx = append(g.wx, zerosLike(l.wx))
		g.wh = append(g.wh, zerosLike(l.wh))
		g.b = append(g.b, make([]float64, len(l.b)))
	}
	return g
}

// zero resets every gradient to 0 so one grads value serves every sample.
func (g *grads) zero() {
	for li := range g.wx {
		for r := range g.wx[li] {
			clear(g.wx[li][r])
		}
		for r := range g.wh[li] {
			clear(g.wh[li][r])
		}
		clear(g.b[li])
	}
	clear(g.wy)
	g.by = 0
}

func zerosLike(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = make([]float64, len(m[i]))
	}
	return out
}

// forwardTraining runs the flattened sequence keeping every activation,
// returning the prediction and the per-layer, per-step caches.
func (n *Network) forwardTraining(xs []float64) (float64, [][]stepCache) {
	caches := make([][]stepCache, len(n.layers))
	for li := range caches {
		caches[li] = make([]stepCache, n.cfg.SeqLen)
	}
	return n.run(n.NewScratch(), xs, caches), caches
}

// backward accumulates gradients of 0.5*(pred-target)^2 into g and returns
// the squared error.
func (n *Network) backward(xs []float64, target float64, g *grads) float64 {
	pred, caches := n.forwardTraining(xs)
	diff := pred - target

	h := n.cfg.HiddenDim
	T := n.cfg.SeqLen
	L := len(n.layers)

	// dh[li] is the gradient flowing into layer li's hidden state at the
	// current timestep; dc likewise for the cell state.
	dh := make([][]float64, L)
	dc := make([][]float64, L)
	for li := range dh {
		dh[li] = make([]float64, h)
		dc[li] = make([]float64, h)
	}

	// Head gradients feed the top layer at the last step.
	top := caches[L-1][T-1].h
	for j := 0; j < h; j++ {
		g.wy[j] += diff * top[j]
		dh[L-1][j] += diff * n.wy[j]
	}
	g.by += diff

	// dxNext[t] collects the gradient each layer passes to the layer below
	// at timestep t (input gradient).
	for t := T - 1; t >= 0; t-- {
		for li := L - 1; li >= 0; li-- {
			l := n.layers[li]
			c := &caches[li][t]
			dhl, dcl := dh[li], dc[li]
			// Through h = o * tanh(c).
			dpre := make([]float64, 4*h)
			for j := 0; j < h; j++ {
				do := dhl[j] * c.tanhC[j]
				dcj := dcl[j] + dhl[j]*c.o[j]*(1-c.tanhC[j]*c.tanhC[j])
				di := dcj * c.g[j]
				dg := dcj * c.i[j]
				df := dcj * c.cPrev[j]
				dcPrev := dcj * c.f[j]

				dpre[j] = di * c.i[j] * (1 - c.i[j])
				dpre[h+j] = df * c.f[j] * (1 - c.f[j])
				dpre[2*h+j] = dg * (1 - c.g[j]*c.g[j])
				dpre[3*h+j] = do * c.o[j] * (1 - c.o[j])
				dcl[j] = dcPrev
			}
			// Parameter gradients and propagation to x and hPrev.
			dx := make([]float64, l.inDim)
			dhPrev := make([]float64, h)
			for r := 0; r < 4*h; r++ {
				dp := dpre[r]
				if dp == 0 {
					continue
				}
				wxr, whr := l.wx[r], l.wh[r]
				gx, gh := g.wx[li][r], g.wh[li][r]
				for j := 0; j < l.inDim; j++ {
					gx[j] += dp * c.x[j]
					dx[j] += dp * wxr[j]
				}
				for j := 0; j < h; j++ {
					gh[j] += dp * c.hPrev[j]
					dhPrev[j] += dp * whr[j]
				}
				g.b[li][r] += dp
			}
			// Hidden gradient for the previous timestep of this layer.
			copy(dh[li], dhPrev)
			// Input gradient feeds the layer below at the same timestep.
			if li > 0 {
				below := dh[li-1]
				for j := 0; j < h; j++ {
					below[j] += dx[j]
				}
			}
		}
	}
	return diff * diff
}

// adamState holds first/second moment estimates matching grads.
type adamState struct {
	m, v *grads
	t    int
}

// TrainConfig controls SGD.
type TrainConfig struct {
	LearningRate float64
	Epochs       int
	ClipNorm     float64
}

// DefaultTrainConfig returns a reasonable Adam setup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{LearningRate: 1e-3, Epochs: 10, ClipNorm: 5}
}

// Sample is one training example: an input sequence and a target frequency.
type Sample struct {
	Seq    [][]float64
	Target float64
}

// TrainResult reports per-epoch mean squared error.
type TrainResult struct {
	EpochMSE []float64
}

// Train fits the network with Adam on the given samples. It is honest
// work — a 3x128 network on thousands of length-32 sequences takes real
// time, which is exactly the software-overhead point the paper makes.
func (n *Network) Train(samples []Sample, cfg TrainConfig) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, errors.New("lstm: no training samples")
	}
	if cfg.LearningRate <= 0 || cfg.Epochs <= 0 {
		return nil, errors.New("lstm: invalid training config")
	}
	flat := make([][]float64, len(samples))
	for i, s := range samples {
		if len(s.Seq) != n.cfg.SeqLen {
			return nil, fmt.Errorf("lstm: sample %d has length %d, want %d", i, len(s.Seq), n.cfg.SeqLen)
		}
		xs, err := n.flatten(s.Seq)
		if err != nil {
			return nil, fmt.Errorf("lstm: sample %d: %w", i, err)
		}
		flat[i] = xs
	}
	ad := &adamState{m: newGrads(n), v: newGrads(n)}
	g := newGrads(n)
	res := &TrainResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sse := 0.0
		for i, s := range samples {
			g.zero()
			sse += n.backward(flat[i], s.Target, g)
			clip(g, cfg.ClipNorm)
			ad.t++
			n.applyAdam(g, ad, cfg.LearningRate)
		}
		res.EpochMSE = append(res.EpochMSE, sse/float64(len(samples)))
	}
	return res, nil
}

func clip(g *grads, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var sq float64
	visit(g, func(v *float64) { sq += *v * *v })
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	visit(g, func(v *float64) { *v *= scale })
}

// visit walks every gradient scalar.
func visit(g *grads, f func(*float64)) {
	for li := range g.wx {
		for r := range g.wx[li] {
			for j := range g.wx[li][r] {
				f(&g.wx[li][r][j])
			}
		}
		for r := range g.wh[li] {
			for j := range g.wh[li][r] {
				f(&g.wh[li][r][j])
			}
		}
		for r := range g.b[li] {
			f(&g.b[li][r])
		}
	}
	for j := range g.wy {
		f(&g.wy[j])
	}
	f(&g.by)
}

const (
	beta1 = 0.9
	beta2 = 0.999
	eps   = 1e-8
)

func (n *Network) applyAdam(g *grads, ad *adamState, lr float64) {
	bc1 := 1 - math.Pow(beta1, float64(ad.t))
	bc2 := 1 - math.Pow(beta2, float64(ad.t))
	step := func(p, gv, m, v *float64) {
		*m = beta1**m + (1-beta1)**gv
		*v = beta2**v + (1-beta2)**gv**gv
		mh := *m / bc1
		vh := *v / bc2
		*p -= lr * mh / (math.Sqrt(vh) + eps)
	}
	for li, l := range n.layers {
		for r := range l.wx {
			for j := range l.wx[r] {
				step(&l.wx[r][j], &g.wx[li][r][j], &ad.m.wx[li][r][j], &ad.v.wx[li][r][j])
			}
			for j := range l.wh[r] {
				step(&l.wh[r][j], &g.wh[li][r][j], &ad.m.wh[li][r][j], &ad.v.wh[li][r][j])
			}
			step(&l.b[r], &g.b[li][r], &ad.m.b[li][r], &ad.v.b[li][r])
		}
	}
	for j := range n.wy {
		step(&n.wy[j], &g.wy[j], &ad.m.wy[j], &ad.v.wy[j])
	}
	step(&n.by, &g.by, &ad.m.by, &ad.v.by)
}
