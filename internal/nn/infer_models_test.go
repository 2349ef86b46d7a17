package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/nn"
	"darnet/internal/privacy"
	"darnet/internal/tensor"
)

// trainedFrameModels returns the served frame architectures after a short
// training run on random frames, so batch norm carries real running
// statistics: the MicroInception CNN, its plain ablation, and a dCNN
// student distilled from the MicroInception teacher.
func trainedFrameModels(t *testing.T) map[string]*nn.Sequential {
	t.Helper()
	const w, h, classes = 16, 16, 4
	rng := rand.New(rand.NewSource(11))
	frames := tensor.Uniform(rng, 0, 1, 24, w*h)
	labels := make([]int, frames.Dim(0))
	for i := range labels {
		labels[i] = i % classes
	}
	models := map[string]*nn.Sequential{}
	for name, build := range map[string]func(*rand.Rand, int, int, int, core.CNNConfig) (*nn.Sequential, error){
		"microinception": core.BuildFrameCNN,
		"plain":          core.BuildPlainCNN,
	} {
		net, err := build(rng, w, h, classes, core.DefaultCNNConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nn.TrainClassifier(net, nn.NewAdam(0.01), rng, frames, labels, nn.TrainConfig{Epochs: 1, BatchSize: 8}); err != nil {
			t.Fatal(err)
		}
		models[name] = net
	}
	cfg := privacy.DefaultDistillConfig()
	cfg.Epochs = 1
	student, err := privacy.Distill(models["microinception"], func(rng *rand.Rand) (*nn.Sequential, error) {
		return core.BuildFrameCNN(rng, w, h, classes, core.DefaultCNNConfig())
	}, frames, w, h, collect.DistortMedium, privacy.CompactRatios(), rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	models["dcnn"] = student
	return models
}

// TestServedModelsInferMatchesForward holds Infer to the training-path
// Forward(x, false) within 1e-12 on every served frame model, and checks
// that a warm workspace makes Infer allocation-free on each. Frame pixels
// arrive from outside the program unchecked, so some inputs carry a NaN or
// an infinity: Infer must turn them into what Forward does, NaN for NaN.
func TestServedModelsInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for name, net := range trainedFrameModels(t) {
		ws, err := net.NewWorkspace(16 * 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5+len(nonFinite); i++ {
			x := tensor.Uniform(rng, 0, 1, 1, 16*16)
			if i >= 5 {
				x.Data()[rng.Intn(16*16)] = nonFinite[i-5]
			}
			want, err := net.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := net.Infer(ws, x.Data())
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range want.Data() {
				same := got[j] == v || math.Abs(got[j]-v) <= 1e-12 || math.IsNaN(got[j]) && math.IsNaN(v)
				if !same {
					t.Fatalf("%s: Infer[%d] = %v, Forward = %v", name, j, got[j], v)
				}
			}
		}
		x := tensor.Uniform(rng, 0, 1, 1, 16*16).Data()
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := net.Infer(ws, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: Infer allocates %v times per call on a warm workspace, want 0", name, allocs)
		}
	}
}
