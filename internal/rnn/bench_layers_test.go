package rnn

import (
	"math/rand"
	"testing"
)

// BenchmarkInferLayers is the per-layer kernel ledger of the paper's IMU
// model at the served geometry (2 BiLSTM layers of 64 units per direction
// over 20-step windows of 13 features, 3 classes): one sub-benchmark per
// BiLSTM layer and for the pooled head on a warm workspace, reporting FLOPs
// and achieved GFLOP/s beside ns/op and allocs/op, plus the whole
// classifier. Run it with `make bench-kernels`.
func BenchmarkInferLayers(b *testing.B) {
	const T, in, hidden, classes = 20, 13, 64, 3
	rng := rand.New(rand.NewSource(1))
	c, err := NewClassifier("imurnn", rng, Config{Input: in, Hidden: hidden, Layers: 2, Classes: classes})
	if err != nil {
		b.Fatal(err)
	}
	seq := randWindow(rng, T, in)
	ws, err := c.NewWorkspace(T)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	x := seq.Data()
	for i, l := range c.layers {
		out := ws.seq[i%2][:T*l.OutWidth()]
		// Gate projections (a multiply and an add per weight per step per
		// direction) plus the elementwise cell update (~10 operations per
		// unit).
		flops := 2 * float64(T) * (2*float64(l.in()+l.hidden())*4*float64(l.hidden()) + 10*float64(l.hidden()))
		total += flops
		layerIn := x
		b.Run(l.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.inferSeq(ws, layerIn, T, out)
			}
			reportFLOPs(b, flops)
		})
		l.inferSeq(ws, layerIn, T, out)
		x = out
	}
	top := x
	headFLOPs := float64(len(top)) + 2*float64(len(ws.pooled)*classes)
	total += headFLOPs
	b.Run("head", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.poolHead(top, T, ws.pooled, ws.logits)
		}
		reportFLOPs(b, headFLOPs)
	})
	b.Run("rnn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Infer(ws, seq); err != nil {
				b.Fatal(err)
			}
		}
		reportFLOPs(b, total)
	})
}

// BenchmarkTrainLayers is the per-layer training ledger of the same model
// on one 20-step window: one sub-benchmark per BiLSTM layer timing its
// training forward pass plus BPTT, and the whole classifier's forward and
// backward pass, reporting the gate projections' multiply-accumulate FLOPs
// three times over (forward, dW, and dx with the carried dh).
func BenchmarkTrainLayers(b *testing.B) {
	const T, in, hidden, classes = 20, 13, 64, 3
	rng := rand.New(rand.NewSource(1))
	c, err := NewClassifier("imurnn", rng, Config{Input: in, Hidden: hidden, Layers: 2, Classes: classes})
	if err != nil {
		b.Fatal(err)
	}
	seq := randWindow(rng, T, in)
	total := 0.0
	x := seq
	for _, l := range c.layers {
		flops := 3 * 2 * float64(T) * 2 * float64(l.in()+l.hidden()) * 4 * float64(l.hidden())
		total += flops
		y, _, err := l.forwardSeq(x)
		if err != nil {
			b.Fatal(err)
		}
		grad := randWindow(rng, T, l.OutWidth())
		layerIn := x
		b.Run(l.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, cache, err := l.forwardSeq(layerIn)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := l.backwardSeq(cache, grad); err != nil {
					b.Fatal(err)
				}
			}
			reportFLOPs(b, flops)
		})
		x = y
	}
	grad := randWindow(rng, 1, classes)
	b.Run("rnn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, cache, err := c.forward(seq)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.backward(cache, grad); err != nil {
				b.Fatal(err)
			}
		}
		reportFLOPs(b, total)
	})
}

func reportFLOPs(b *testing.B, flops float64) {
	b.ReportMetric(flops, "FLOPs")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flops*float64(b.N)/s/1e9, "GFLOP/s")
	}
}
