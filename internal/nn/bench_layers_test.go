package nn_test

import (
	"math/rand"
	"testing"

	"darnet/internal/core"
	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// BenchmarkInferLayers is the per-layer kernel ledger of the MicroInception
// frame CNN at the served geometry (32×32 frames, 6 classes): one
// sub-benchmark per leaf layer on a warm workspace, reporting FLOPs and
// achieved GFLOP/s beside ns/op and allocs/op, plus the whole network.
// Run it with `make bench-kernels`.
func BenchmarkInferLayers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := core.BuildFrameCNN(rng, 32, 32, 6, core.DefaultCNNConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 32*32)
	for i := range x {
		x[i] = rng.Float64()
	}
	ws, err := net.NewWorkspace(len(x))
	if err != nil {
		b.Fatal(err)
	}
	runs, err := nn.InferLayers(net, ws, x)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	for _, r := range runs {
		total += r.FLOPs
		b.Run(r.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Run()
			}
			reportFLOPs(b, r.FLOPs)
		})
	}
	b.Run("cnn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := net.Infer(ws, x); err != nil {
				b.Fatal(err)
			}
		}
		reportFLOPs(b, total)
	})
}

// BenchmarkTrainLayers is the per-layer training ledger of the same
// network on one training batch (32 frames, the default CNN batch size):
// one sub-benchmark per convolution and dense layer timing Forward(x,
// true) plus Backward, and the whole network's Forward and Backward,
// reporting the multiply-accumulate FLOPs of the forward, dW and dx
// products. Run it with `make bench-kernels`.
func BenchmarkTrainLayers(b *testing.B) {
	const batch = 32
	rng := rand.New(rand.NewSource(1))
	net, err := core.BuildFrameCNN(rng, 32, 32, 6, core.DefaultCNNConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Uniform(rng, 0, 1, batch, 32*32)
	runs, err := nn.TrainLayers(net, x)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	for _, r := range runs {
		total += r.FLOPs
		b.Run(r.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Run()
			}
			reportFLOPs(b, r.FLOPs)
		})
	}
	y, err := net.Forward(x, true)
	if err != nil {
		b.Fatal(err)
	}
	grad := tensor.Randn(rng, 1, y.Shape()...)
	b.Run("cnn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(x, true); err != nil {
				b.Fatal(err)
			}
			if _, err := net.Backward(grad); err != nil {
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
