package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"darnet/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(5), 2+rng.Intn(6)
		logits := tensor.Randn(rng, 3, n, c)
		probs, err := Softmax(logits)
		if err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			sum := 0.0
			for _, p := range probs.Row(s) {
				if p < 0 || p > 1 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.Randn(rng, 2, 3, 4)
	shifted := logits.Clone().Apply(func(v float64) float64 { return v + 1000 })
	a, err := Softmax(logits)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Softmax(shifted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if math.Abs(a.Data()[i]-b.Data()[i]) > 1e-9 {
			t.Fatalf("softmax not shift invariant at %d", i)
		}
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(2, 4)
	loss, probs, grad, err := CrossEntropy(logits, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("loss = %g, want ln(4)=%g", loss, math.Log(4))
	}
	if math.Abs(probs.At(0, 0)-0.25) > 1e-9 {
		t.Fatalf("probs = %v", probs.Row(0))
	}
	// Gradient at true class: (p-1)/N.
	if math.Abs(grad.At(0, 0)-(0.25-1)/2) > 1e-9 {
		t.Fatalf("grad = %v", grad.Row(0))
	}
}

func TestCrossEntropyLabelValidation(t *testing.T) {
	logits := tensor.New(1, 3)
	if _, _, _, err := CrossEntropy(logits, []int{5}); err == nil {
		t.Fatal("expected out-of-range label error")
	}
	if _, _, _, err := CrossEntropy(logits, []int{0, 1}); err == nil {
		t.Fatal("expected label-count error")
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := tensor.Randn(rng, 1, 3, 5)
	labels := []int{1, 4, 0}
	_, _, grad, err := CrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + h
		up, _, _, _ := CrossEntropy(logits, labels)
		logits.Data()[i] = orig - h
		down, _, _, _ := CrossEntropy(logits, labels)
		logits.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-grad.Data()[i]) > 1e-6 {
			t.Fatalf("grad[%d]: analytic %g vs numeric %g", i, grad.Data()[i], num)
		}
	}
}

func TestL2Distance(t *testing.T) {
	pred := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	target := tensor.MustFromSlice([]float64{1, 0, 3, 0}, 2, 2)

	l2, lgrad, err := L2Distance(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-(4+16)/2.0) > 1e-12 {
		t.Fatalf("l2 = %g", l2)
	}
	if lgrad.At(0, 1) != 2*2/2.0 {
		t.Fatalf("l2 grad = %v", lgrad.Data())
	}

	if _, _, err := L2Distance(pred, tensor.New(3)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout("drop", rng, 0.5)
	x := tensor.Full(1, 1, 1000)

	eval, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if eval.Sum() != 1000 {
		t.Fatal("inference-mode dropout must be identity")
	}

	train, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range train.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // survivors are scaled by 1/(1-p) = 2
		default:
			t.Fatalf("unexpected dropout output %g", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout zeroed %d/1000 at p=0.5", zeros)
	}
	// Expectation is preserved approximately.
	mean := train.Mean()
	if mean < 0.8 || mean > 1.2 {
		t.Fatalf("dropout mean = %g, want ~1", mean)
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm("bn", 3, 3)
	x := tensor.Randn(rng, 5, 64, 3).Apply(func(v float64) float64 { return v + 10 })
	y, err := bn.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		mean, varsum := 0.0, 0.0
		for s := 0; s < 64; s++ {
			mean += y.At(s, j)
		}
		mean /= 64
		for s := 0; s < 64; s++ {
			d := y.At(s, j) - mean
			varsum += d * d
		}
		varsum /= 64
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("feature %d mean = %g, want ~0", j, mean)
		}
		if math.Abs(varsum-1) > 1e-2 {
			t.Fatalf("feature %d var = %g, want ~1", j, varsum)
		}
	}
}

func TestBatchNormRunningStatsUsedInEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm("bn", 2, 2)
	x := tensor.Randn(rng, 2, 32, 2).Apply(func(v float64) float64 { return v*3 + 5 })
	for i := 0; i < 50; i++ {
		if _, err := bn.Forward(x, true); err != nil {
			t.Fatal(err)
		}
	}
	y, err := bn.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	// After long exposure the running stats converge to batch stats, so eval
	// output should be near-normalized too.
	if math.Abs(y.Mean()) > 0.15 {
		t.Fatalf("eval mean = %g, want ~0", y.Mean())
	}
	if err := func() error { _, err := bn.Backward(tensor.New(32, 2)); return err }(); err != nil {
		t.Fatalf("backward after training-mode forward should work: %v", err)
	}
}

func TestSGDMomentumConvergesQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 by hand-feeding gradients.
	target := []float64{3, -2}
	p := NewParam("w", tensor.New(2))
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	for i := 0; i < 600; i++ {
		p.ZeroGrad()
		for j := range target {
			p.Grad.Data()[j] = 2 * (p.Value.Data()[j] - target[j])
		}
		opt.Step([]*Param{p})
	}
	for j, w := range p.Value.Data() {
		if math.Abs(w-target[j]) > 1e-6 {
			t.Fatalf("w[%d] = %g, want %g", j, w, target[j])
		}
	}
}

func TestAdamConvergesQuadratic(t *testing.T) {
	target := []float64{1.5, -0.5, 4}
	p := NewParam("w", tensor.New(3))
	opt := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		p.ZeroGrad()
		for j := range target {
			p.Grad.Data()[j] = 2 * (p.Value.Data()[j] - target[j])
		}
		opt.Step([]*Param{p})
	}
	for j, w := range p.Value.Data() {
		if math.Abs(w-target[j]) > 1e-3 {
			t.Fatalf("w[%d] = %g, want %g", j, w, target[j])
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(2))
	p.Grad.Data()[0] = 3
	p.Grad.Data()[1] = 4
	norm, err := ClipGradNorm([]*Param{p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g", norm)
	}
	after := math.Hypot(p.Grad.Data()[0], p.Grad.Data()[1])
	if math.Abs(after-1) > 1e-9 {
		t.Fatalf("post-clip norm = %g, want 1", after)
	}
	if _, err := ClipGradNorm(nil, 0); err == nil {
		t.Fatal("expected error for non-positive max norm")
	}
}

func TestTrainClassifierLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Three well-separated Gaussian blobs in 2-D.
	const perClass = 60
	x := tensor.New(3*perClass, 2)
	labels := make([]int, 3*perClass)
	centers := [][2]float64{{0, 0}, {5, 5}, {-5, 5}}
	for c := 0; c < 3; c++ {
		for i := 0; i < perClass; i++ {
			idx := c*perClass + i
			x.Set(centers[c][0]+rng.NormFloat64()*0.5, idx, 0)
			x.Set(centers[c][1]+rng.NormFloat64()*0.5, idx, 1)
			labels[idx] = c
		}
	}
	net := NewSequential("mlp",
		NewDense("fc1", rng, 2, 16),
		NewReLU(),
		NewDense("fc2", rng, 16, 3),
	)
	res, err := TrainClassifier(net, NewAdam(0.01), rng, x, labels, TrainConfig{Epochs: 30, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 30 {
		t.Fatalf("got %d epoch results", len(res))
	}
	if res[len(res)-1].Loss > res[0].Loss {
		t.Fatalf("loss did not decrease: %g -> %g", res[0].Loss, res[len(res)-1].Loss)
	}
	pred, err := PredictClasses(net, x)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(pred, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.98 {
		t.Fatalf("blob accuracy = %g, want >= 0.98", acc)
	}

	probs, err := PredictProbs(net, x)
	if err != nil {
		t.Fatal(err)
	}
	if probs.Dim(0) != 3*perClass || probs.Dim(1) != 3 {
		t.Fatalf("probs shape = %v", probs.Shape())
	}
}

func TestTrainClassifierEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.Randn(rng, 1, 10, 2)
	labels := make([]int, 10)
	net := NewSequential("n", NewDense("fc", rng, 2, 2))
	res, err := TrainClassifier(net, NewSGD(0.1), rng, x, labels, TrainConfig{
		Epochs: 100, BatchSize: 5,
		OnEpoch: func(epoch int, loss float64) bool { return epoch < 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("early stop produced %d epochs, want 3", len(res))
	}
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewSequential("a", NewDense("fc1", rng, 3, 4), NewDense("fc2", rng, 4, 2))
	dst := NewSequential("b", NewDense("fc1", rng, 3, 4), NewDense("fc2", rng, 4, 2))

	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		q := dst.Params()[i]
		for j := range p.Value.Data() {
			if p.Value.Data()[j] != q.Value.Data()[j] {
				t.Fatalf("param %s differs after round trip", p.Name)
			}
		}
	}
}

func TestLoadParamsMissingAndMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := NewSequential("a", NewDense("fc1", rng, 3, 4))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewSequential("b", NewDense("other", rng, 3, 4))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("expected missing-parameter error")
	}
	smaller := NewSequential("c", NewDense("fc1", rng, 2, 2))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), smaller.Params()); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewSequential("a", NewDense("fc", rng, 3, 3))
	dst := NewSequential("b", NewDense("fc", rng, 3, 3))
	if err := CopyParams(dst.Params(), src.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		for j := range p.Value.Data() {
			if dst.Params()[i].Value.Data()[j] != p.Value.Data()[j] {
				t.Fatal("copy params did not copy values")
			}
		}
	}
	if err := CopyParams(dst.Params()[:1], src.Params()); err == nil {
		t.Fatal("expected count mismatch error")
	}
}

func TestSequentialOutFeaturesThreading(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewSequential("net",
		NewDense("fc1", rng, 4, 8),
		NewReLU(),
		NewDense("fc2", rng, 8, 2),
	)
	out, err := net.OutFeatures(4)
	if err != nil {
		t.Fatal(err)
	}
	if out != 2 {
		t.Fatalf("OutFeatures = %d, want 2", out)
	}
	if _, err := net.OutFeatures(5); err == nil {
		t.Fatal("expected width error")
	}
	if got := net.NumParams(); got != 4*8+8+8*2+2 {
		t.Fatalf("NumParams = %d", got)
	}
}

func TestDenseRejectsWrongWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := NewDense("fc", rng, 3, 2)
	if _, err := d.Forward(tensor.New(1, 4), false); err == nil {
		t.Fatal("expected width error")
	}
}

func TestConvRejectsWrongWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c := NewConv2D("conv", rng, tensor.ConvGeom{
		InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1,
	}, 2)
	if _, err := c.Forward(tensor.New(1, 10), false); err == nil {
		t.Fatal("expected width error")
	}
}

func TestConvKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c := NewConv2D("conv", rng, tensor.ConvGeom{
		InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 1, StrideW: 1,
	}, 1)
	// Identity-ish kernel: w = [1, 0, 0, 1], b = 0.5 -> y = x00 + x11 + 0.5.
	copy(c.w.Value.Data(), []float64{1, 0, 0, 1})
	c.b.Value.Data()[0] = 0.5
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 1, 4)
	y, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != 1 || math.Abs(y.At(0, 0)-5.5) > 1e-12 {
		t.Fatalf("conv output = %v, want [5.5]", y.Data())
	}
}

func TestTrainClassifierLRStepDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := tensor.Randn(rng, 1, 12, 2)
	labels := make([]int, 12)
	net := NewSequential("n", NewDense("fc", rng, 2, 2))
	opt := NewSGD(1.0)
	_, err := TrainClassifier(net, opt, rng, x, labels, TrainConfig{
		Epochs: 5, BatchSize: 4, LRStepEvery: 2, LRStepFactor: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Decays at epochs 2 and 4: 1.0 -> 0.5 -> 0.25.
	if math.Abs(opt.LR-0.25) > 1e-12 {
		t.Fatalf("LR after decay = %g, want 0.25", opt.LR)
	}

	adam := NewAdam(0.1)
	if _, err := TrainClassifier(net, adam, rng, x, labels, TrainConfig{
		Epochs: 3, BatchSize: 4, LRStepEvery: 1, LRStepFactor: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(adam.LR-0.001) > 1e-12 {
		t.Fatalf("Adam LR after decay = %g, want 0.001", adam.LR)
	}
}

func TestDistillationLossGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	student := tensor.Randn(rng, 1, 2, 4)
	teacher := tensor.Randn(rng, 1, 2, 4)
	const temp = 2.5
	_, grad, err := DistillationLoss(student, teacher, temp)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := range student.Data() {
		orig := student.Data()[i]
		student.Data()[i] = orig + h
		up, _, _ := DistillationLoss(student, teacher, temp)
		student.Data()[i] = orig - h
		down, _, _ := DistillationLoss(student, teacher, temp)
		student.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-grad.Data()[i]) > 1e-5 {
			t.Fatalf("grad[%d]: analytic %g vs numeric %g", i, grad.Data()[i], num)
		}
	}
}

func TestDistillationLossIdenticalLogitsIsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	logits := tensor.Randn(rng, 1, 3, 5)
	lossSame, grad, err := DistillationLoss(logits, logits, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Gradient at the minimum is zero; loss equals the teacher's softened
	// entropy (positive).
	for i, g := range grad.Data() {
		if math.Abs(g) > 1e-12 {
			t.Fatalf("grad[%d] = %g at the minimum", i, g)
		}
	}
	other := tensor.Randn(rng, 1, 3, 5)
	lossOther, _, err := DistillationLoss(other, logits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lossOther <= lossSame {
		t.Fatalf("mismatched logits scored %g <= matched %g", lossOther, lossSame)
	}
}

func TestDistillationLossValidation(t *testing.T) {
	a := tensor.New(1, 3)
	if _, _, err := DistillationLoss(a, tensor.New(1, 4), 2); err == nil {
		t.Fatal("expected shape error")
	}
	if _, _, err := DistillationLoss(a, a.Clone(), 0); err == nil {
		t.Fatal("expected temperature error")
	}
}

func TestSequentialSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewSequential("mlp",
		NewDense("fc1", rng, 4, 8),
		NewReLU(),
		NewDense("fc2", rng, 8, 2),
	)
	s := net.Summary(4)
	for _, want := range []string{"mlp", "fc1", "relu", "fc2", "total parameters: 58"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	// A wrong input width is reported, not panicked on.
	if !strings.Contains(net.Summary(5), "width error") {
		t.Fatal("summary should surface width errors")
	}
}
