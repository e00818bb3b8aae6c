package lstm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceForward is the straightforward form of inference the scratch
// path must reproduce bit for bit: fresh zero state per sequence, a fresh
// pre-activation vector and next state per layer step, and the same
// summation order (bias, then input terms, then recurrent terms).
func referenceForward(n *Network, seq [][]float64) float64 {
	H := n.cfg.HiddenDim
	hs := make([][]float64, len(n.layers))
	cs := make([][]float64, len(n.layers))
	for li := range n.layers {
		hs[li] = make([]float64, H)
		cs[li] = make([]float64, H)
	}
	for _, x := range seq {
		cur := x
		for li, l := range n.layers {
			pre := make([]float64, 4*H)
			for r := 0; r < 4*H; r++ {
				s := l.b[r]
				for j, xv := range cur {
					s += l.wx[r][j] * xv
				}
				for j, hv := range hs[li] {
					s += l.wh[r][j] * hv
				}
				pre[r] = s
			}
			h, c := make([]float64, H), make([]float64, H)
			for j := 0; j < H; j++ {
				ig := sigmoid(pre[j])
				fg := sigmoid(pre[H+j])
				gg := math.Tanh(pre[2*H+j])
				og := sigmoid(pre[3*H+j])
				c[j] = fg*cs[li][j] + ig*gg
				h[j] = og * math.Tanh(c[j])
			}
			hs[li], cs[li] = h, c
			cur = h
		}
	}
	out := n.by
	for j, w := range n.wy {
		out += w * hs[len(hs)-1][j]
	}
	return out
}

// TestInferMatchesReferenceForward: over random shapes (layers 1-3, hidden
// 1-32, sequence 1-8, input 1-3) and random weights and inputs, Infer on a
// reused scratch and Forward both return exactly the reference's bits.
func TestInferMatchesReferenceForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		cfg := Config{
			InputDim:  1 + rng.Intn(3),
			HiddenDim: 1 + rng.Intn(32),
			Layers:    1 + rng.Intn(3),
			SeqLen:    1 + rng.Intn(8),
		}
		n, err := New(cfg, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		// Non-trivial biases and head offset, so every parameter group
		// contributes.
		for _, l := range n.layers {
			for r := range l.b {
				l.b[r] = rng.NormFloat64()
			}
		}
		n.by = rng.NormFloat64()
		s := n.NewScratch()
		for k := 0; k < 5; k++ {
			seq := make([][]float64, cfg.SeqLen)
			xs := make([]float64, 0, cfg.SeqLen*cfg.InputDim)
			for i := range seq {
				seq[i] = make([]float64, cfg.InputDim)
				for j := range seq[i] {
					seq[i][j] = rng.NormFloat64() * 3
				}
				xs = append(xs, seq[i]...)
			}
			want := referenceForward(n, seq)
			got, err := n.Infer(s, xs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v inference %d: Infer = %v, reference = %v", cfg, k, got, want)
			}
			fwd, err := n.Forward(seq)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fwd) != math.Float64bits(want) {
				t.Fatalf("%+v inference %d: Forward = %v, reference = %v", cfg, k, fwd, want)
			}
		}
	}
}

// TestInferRejectsWrongLength pins Infer's shape check.
func TestInferRejectsWrongLength(t *testing.T) {
	n, err := New(tinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := n.NewScratch()
	if _, err := n.Infer(s, make([]float64, tinyConfig().SeqLen)); err == nil {
		t.Error("flattened sequence of the wrong length accepted")
	}
}

// TestInferAllocatesNothing: inference on owned scratch is allocation-free.
func TestInferAllocatesNothing(t *testing.T) {
	cfg := Config{InputDim: 2, HiddenDim: 32, Layers: 2, SeqLen: 8}
	n, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := n.NewScratch()
	xs := make([]float64, cfg.SeqLen*cfg.InputDim)
	for i := range xs {
		xs[i] = float64(i) / 10
	}
	if allocs := testing.AllocsPerRun(100, func() { n.Infer(s, xs) }); allocs != 0 {
		t.Errorf("Infer allocates %v times per call, want 0", allocs)
	}
}

// TestTrainRejectsWrongInputDim: a sample row of the wrong width is an
// error, not a panic inside backpropagation.
func TestTrainRejectsWrongInputDim(t *testing.T) {
	cfg := tinyConfig()
	n, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := seqOf(cfg, func(int) []float64 { return []float64{1} })
	if _, err := n.Train([]Sample{{Seq: seq, Target: 0.5}}, DefaultTrainConfig()); err == nil {
		t.Error("sample with the wrong input dim accepted")
	}
}

// BenchmarkInfer times one allocation-free inference at the serve shadow's
// default shape and at a wider one.
func BenchmarkInfer(b *testing.B) {
	for _, cfg := range []Config{
		{InputDim: 2, HiddenDim: 8, Layers: 1, SeqLen: 4},
		{InputDim: 2, HiddenDim: 32, Layers: 1, SeqLen: 8},
	} {
		b.Run(fmt.Sprintf("h%d_seq%d", cfg.HiddenDim, cfg.SeqLen), func(b *testing.B) {
			n, err := New(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			s := n.NewScratch()
			xs := make([]float64, cfg.SeqLen*cfg.InputDim)
			for i := range xs {
				xs[i] = float64(i) / 10
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.Infer(s, xs)
			}
		})
	}
}
