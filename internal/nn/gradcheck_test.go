package nn

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/tensor"
)

// lossOf runs a forward pass in training mode and reduces the output with a
// fixed weighted sum so the loss depends on every output element.
func lossOf(t *testing.T, l Layer, x *tensor.Tensor) float64 {
	t.Helper()
	y, err := l.Forward(x, true)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	loss := 0.0
	for i, v := range y.Data() {
		loss += v * weightFor(i)
	}
	return loss
}

// weightFor gives output element i a deterministic, non-uniform weight so
// gradient errors cannot cancel.
func weightFor(i int) float64 { return math.Sin(float64(i)*0.7) + 1.5 }

// checkGradients verifies backprop input and parameter gradients against
// central finite differences.
func checkGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	y, err := l.Forward(x, true)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	grad := tensor.New(y.Shape()...)
	for i := range grad.Data() {
		grad.Data()[i] = weightFor(i)
	}
	dx, err := l.Backward(grad)
	if err != nil {
		t.Fatalf("backward: %v", err)
	}

	const h = 1e-5
	// Input gradient.
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := lossOf(t, l, x)
		x.Data()[i] = orig - h
		down := lossOf(t, l, x)
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if diff := math.Abs(num - dx.Data()[i]); diff > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad [%d]: analytic %g vs numeric %g", i, dx.Data()[i], num)
		}
	}
	// Restore caches clobbered by the probe passes, then re-measure parameter
	// gradients: zero, forward, backward once.
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	if _, err := l.Forward(x, true); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if _, err := l.Backward(grad); err != nil {
		t.Fatalf("backward: %v", err)
	}
	for _, p := range l.Params() {
		analytic := p.Grad.Clone()
		for i := range p.Value.Data() {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + h
			up := lossOf(t, l, x)
			p.Value.Data()[i] = orig - h
			down := lossOf(t, l, x)
			p.Value.Data()[i] = orig
			num := (up - down) / (2 * h)
			if diff := math.Abs(num - analytic.Data()[i]); diff > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s grad [%d]: analytic %g vs numeric %g", p.Name, i, analytic.Data()[i], num)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense("fc", rng, 5, 3)
	x := tensor.Randn(rng, 1, 4, 5)
	checkGradients(t, l, x, 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2D("conv", rng, tensor.ConvGeom{
		InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
	}, 3)
	x := tensor.Randn(rng, 1, 2, 2*5*5)
	checkGradients(t, l, x, 1e-5)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv2D("conv", rng, tensor.ConvGeom{
		InC: 1, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2,
	}, 2)
	x := tensor.Randn(rng, 1, 2, 36)
	checkGradients(t, l, x, 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	l := NewMaxPool2D("pool", tensor.ConvGeom{
		InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2,
	})
	// Keep values well separated so finite differences never flip the argmax.
	x := tensor.New(2, 2*4*4)
	for i := range x.Data() {
		x.Data()[i] = float64((i*37)%101) / 10
	}
	checkGradients(t, l, x, 1e-4)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewGlobalAvgPool("gap", 3, 4, 4)
	x := tensor.Randn(rng, 1, 2, 3*4*4)
	checkGradients(t, l, x, 1e-6)
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// ReLU: keep values away from the kink.
	x := tensor.Randn(rng, 1, 3, 7).Apply(func(v float64) float64 {
		if math.Abs(v) < 0.1 {
			return v + 0.5
		}
		return v
	})
	checkGradients(t, NewReLU(), x, 1e-5)
}

func TestBatchNorm1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewBatchNorm("bn", 4, 4)
	x := tensor.Randn(rng, 1, 6, 4)
	checkGradients(t, l, x, 1e-4)
}

func TestBatchNormSpatialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// 2 channels over a 3x3 plane: width 18, groups 2.
	l := NewBatchNorm("bn2d", 18, 2)
	x := tensor.Randn(rng, 1, 3, 18)
	checkGradients(t, l, x, 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential("net",
		NewDense("fc1", rng, 6, 8),
		NewBatchNorm("bn", 8, 8),
		NewDense("fc2", rng, 8, 3),
	)
	x := tensor.Randn(rng, 1, 4, 6)
	checkGradients(t, net, x, 1e-5)
}

func TestParallelGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewParallel("par",
		NewSequential("a", NewDense("fa", rng, 5, 3), NewBatchNorm("bn", 3, 3)),
		NewSequential("b", NewDense("fb", rng, 5, 4)),
	)
	x := tensor.Randn(rng, 1, 3, 5)
	checkGradients(t, p, x, 1e-5)
}

func TestInceptionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := InceptionSpec{
		InC: 2, InH: 4, InW: 4,
		C1x1: 2, C3x3Reduce: 2, C3x3: 2, C5x5Reduce: 1, C5x5: 1, CPool: 1,
	}
	mod := NewInception("mix", rng, sp)
	// Zero-initialized biases would leave pre-activations exactly on the ReLU
	// kink when an upstream tower is dead, making finite differences
	// one-sided; shift biases so units are active and away from the kink.
	for _, p := range mod.Params() {
		if p.Value.Dims() == 1 {
			p.Value.Fill(0.3)
		}
	}
	// Positive inputs keep ReLUs away from their kink for finite differences.
	x := tensor.Uniform(rng, 0.5, 1.5, 2, 2*4*4)
	checkGradients(t, mod, x, 1e-4)

	wantOut := sp.OutC() * 4 * 4
	got, err := mod.OutFeatures(2 * 4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantOut {
		t.Fatalf("inception OutFeatures = %d, want %d", got, wantOut)
	}
}
