package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"darnet/internal/tensor"
)

// convNaive is the convolution loop Conv2D ran before the blocked kernel,
// kept as the oracle: im2col, then one patch row at a time into each output
// channel, skipping zero weights.
func convNaive(c *Conv2D, x []float64) []float64 {
	spatial := c.geom.OutH() * c.geom.OutW()
	pr := c.patchRows()
	cols := make([]float64, pr*spatial)
	c.geom.Im2Col(x, cols)
	out := make([]float64, c.outC*spatial)
	wd, bd := c.w.Value.Data(), c.b.Value.Data()
	for oc := 0; oc < c.outC; oc++ {
		dst := out[oc*spatial : (oc+1)*spatial]
		for p := range dst {
			dst[p] = bd[oc]
		}
		for r, wv := range wd[oc*pr : (oc+1)*pr] {
			if wv == 0 {
				continue
			}
			for p, cv := range cols[r*spatial : (r+1)*spatial] {
				dst[p] += wv * cv
			}
		}
	}
	return out
}

// inferOne runs one row through a fresh workspace.
func inferOne(t *testing.T, net *Sequential, x []float64) []float64 {
	t.Helper()
	ws, err := net.NewWorkspace(len(x))
	if err != nil {
		t.Fatal(err)
	}
	y, err := net.Infer(ws, x)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), y...)
}

func assertClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol || math.IsNaN(got[i]) {
			t.Fatalf("%s[%d] = %v, want %v (tolerance %g)", what, i, got[i], want[i], tol)
		}
	}
}

func TestConvInferKnownValues(t *testing.T) {
	// One 3×3 channel, 2×2 kernel, stride 1, padding 1: a 4×4 output whose
	// corners see one pixel each and whose centre sees four.
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("conv", rng, tensor.ConvGeom{
		InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
	}, 1)
	copy(c.w.Value.Data(), []float64{1, 2, 3, 4})
	c.b.Value.Data()[0] = 0.5
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := inferOne(t, NewSequential("net", c), x)
	want := []float64{
		4.5, 11.5, 18.5, 9.5,
		18.5, 37.5, 47.5, 21.5,
		36.5, 67.5, 77.5, 33.5,
		14.5, 23.5, 26.5, 9.5,
	}
	assertClose(t, "conv", got, want, 0)
}

// TestConvKernelMatchesOracle runs random geometries — kernels up to 5×5,
// strides 1 and 2, padding, patch-row counts that are and are not
// multiples of four, zero weights — through Infer and Forward and holds both
// to the naive loop.
func TestConvKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(5)
		g := tensor.ConvGeom{
			InC: 1 + rng.Intn(4), InH: k + rng.Intn(6), InW: k + rng.Intn(6),
			KH: k, KW: k, StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(k), PadW: rng.Intn(k),
		}
		if trial%3 == 0 {
			g.KW = 1 + rng.Intn(5) // rectangular kernels too
			g.InW = g.KW + rng.Intn(6)
			g.PadW = rng.Intn(g.KW)
		}
		c := NewConv2D("conv", rng, g, 1+rng.Intn(5))
		for i := range c.w.Value.Data() {
			if rng.Intn(5) == 0 {
				c.w.Value.Data()[i] = 0
			}
		}
		for i := range c.b.Value.Data() {
			c.b.Value.Data()[i] = rng.NormFloat64()
		}
		x := tensor.Randn(rng, 1, 1, g.InC*g.InH*g.InW)
		want := convNaive(c, x.Data())
		got := inferOne(t, NewSequential("net", c), x.Data())
		assertClose(t, "infer", got, want, 1e-12)
		fwd, err := c.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "forward", fwd.Data(), want, 1e-12)
	}
}

// testNet builds a small network with every layer kind, trained for one
// step so batch norm carries real running statistics.
func testNet(t *testing.T, rng *rand.Rand) *Sequential {
	t.Helper()
	net := NewSequential("all",
		NewConv2D("c0", rng, tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 4),
		NewBatchNorm("bn0", 4*6*6, 4),
		NewReLU(),
		NewInception("mix", rng, InceptionSpec{InC: 4, InH: 6, InW: 6, C1x1: 2, C3x3Reduce: 2, C3x3: 3, C5x5Reduce: 1, C5x5: 2, CPool: 2}),
		NewMaxPool2D("pool", tensor.ConvGeom{InC: 9, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2}),
		NewGlobalAvgPool("gap", 9, 3, 3),
		NewBatchNorm("bn1", 9, 9),
		NewReLU(),
		NewDropout("drop", rng, 0.3),
		NewDense("head", rng, 9, 3),
	)
	x := tensor.Randn(rng, 1, 8, 2*6*6)
	if _, err := TrainClassifier(net, NewAdam(0.01), rng, x, []int{0, 1, 2, 0, 1, 2, 0, 1}, TrainConfig{Epochs: 2, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := testNet(t, rng)
	ws, err := net.NewWorkspace(2 * 6 * 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := tensor.Randn(rng, 1, 1, 2*6*6)
		want, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.Infer(ws, x.Data())
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "infer", got, want.Data(), 1e-12)
	}
}

// TestInferLeavesInputAlone covers in-place layers at the head of a
// sequence and of parallel towers: they must write the workspace, never the
// caller's row.
func TestInferLeavesInputAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewSequential("n",
		NewReLU(),
		NewParallel("p", NewSequential("t0", NewDropout("d0", rng, 0.5), NewReLU()), NewReLU()),
		NewDropout("d1", rng, 0.5),
	)
	x := []float64{-1, 0.5, -0.25, 2}
	orig := append([]float64(nil), x...)
	got := inferOne(t, net, x)
	assertClose(t, "input", x, orig, 0)
	want, err := net.Forward(tensor.MustFromSlice(x, 1, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "infer", got, want.Data(), 1e-12)
}

// TestReLUInferNonFinite: Infer's ReLU maps every value as Forward's does,
// a NaN of either sign and -0 to +0, so non-finite activations caused by an
// outside input do not survive it.
func TestReLUInferNonFinite(t *testing.T) {
	x := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -2, 3}
	net := NewSequential("n", NewReLU())
	got := inferOne(t, net, x)
	want, err := net.Forward(tensor.MustFromSlice(x, 1, len(x)), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("relu(%v) = %v, Forward gives %v", x[i], got[i], v)
		}
	}
}

func TestInferWorkspaceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewSequential("a", NewDense("fc", rng, 3, 2))
	b := NewSequential("b", NewDense("fc", rng, 3, 2))
	ws, err := a.NewWorkspace(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Infer(ws, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected an error for a foreign workspace")
	}
	if _, err := a.Infer(ws, []float64{1, 2}); err == nil {
		t.Fatal("expected an error for a wrong-width row")
	}
	if _, err := a.NewWorkspace(4); err == nil {
		t.Fatal("expected an error for a workspace of the wrong width")
	}
}

func TestInferZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := testNet(t, rng)
	ws, err := net.NewWorkspace(2 * 6 * 6)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 1, 2*6*6).Data()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := net.Infer(ws, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Infer on a warm workspace allocates %v times per call, want 0", allocs)
	}
}

// TestConcurrentPredictProbs shares one network across goroutines through
// the pooled entry points; every result must equal the serial one bit for
// bit. Under -race this is the check that inference writes nothing shared.
func TestConcurrentPredictProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := testNet(t, rng)
	x := tensor.Randn(rng, 1, 6, 2*6*6)
	want, err := PredictProbs(net, x)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := PredictProbs(net, x)
				if err != nil {
					errs <- err.Error()
					return
				}
				row := g % x.Dim(0)
				p, err := net.Probs(x.Row(row))
				if err != nil {
					errs <- err.Error()
					return
				}
				for i, v := range got.Data() {
					if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
						errs <- "PredictProbs differs from the serial result"
						return
					}
				}
				for i, v := range p {
					if math.Float64bits(v) != math.Float64bits(want.At(row, i)) {
						errs <- "Probs differs from the serial result"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// The in-workspace softmax properties: each row is a distribution, the
// largest logit keeps the largest probability, and logits of ±1e3 stay
// finite.
func TestSoftmaxIntoSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		logits := make([]float64, 1+rng.Intn(12))
		for i := range logits {
			logits[i] = rng.NormFloat64() * 10
		}
		p := make([]float64, len(logits))
		SoftmaxInto(p, logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v outside [0, 1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax of %v sums to %v", logits, sum)
		}
	}
}

func TestSoftmaxIntoKeepsArgmax(t *testing.T) {
	logits := []float64{0, 0, 10, 0}
	p := make([]float64, len(logits))
	SoftmaxInto(p, logits)
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	if best != 2 {
		t.Fatalf("argmax of softmax(%v) = %d, want 2", logits, best)
	}
	// In place, too.
	SoftmaxInto(logits, logits)
	assertClose(t, "in place", logits, p, 0)
}

func TestSoftmaxIntoStableAtLargeLogits(t *testing.T) {
	for _, logits := range [][]float64{{1000, 1001, 1002}, {-1000, -1001, -1002}, {1000, -1000}} {
		p := make([]float64, len(logits))
		SoftmaxInto(p, logits)
		sum := 0.0
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("softmax(%v) = %v", logits, p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax(%v) sums to %v", logits, sum)
		}
	}
	p := make([]float64, 3)
	SoftmaxInto(p, []float64{1, 2, 3})
	assertClose(t, "softmax(1,2,3)", p, []float64{0.09003057317038046, 0.24472847105479764, 0.6652409557748219}, 1e-15)
}
