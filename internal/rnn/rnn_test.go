package rnn

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// cellLoss runs the cell forward and reduces with fixed weights.
func cellLoss(t *testing.T, c *LSTMCell, x *tensor.Tensor) float64 {
	t.Helper()
	y, _, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	loss := 0.0
	for i, v := range y.Data() {
		loss += v * (math.Sin(float64(i)*0.9) + 1.2)
	}
	return loss
}

func TestLSTMCellGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewLSTMCell("cell", rng, 3, 4)
	x := tensor.Randn(rng, 0.8, 5, 3) // T=5, D=3

	for _, p := range c.Params() {
		p.ZeroGrad()
	}
	y, cache, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(y.Shape()...)
	for i := range grad.Data() {
		grad.Data()[i] = math.Sin(float64(i)*0.9) + 1.2
	}
	dx, err := c.Backward(cache, grad)
	if err != nil {
		t.Fatal(err)
	}

	const h = 1e-6
	const tol = 1e-4
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := cellLoss(t, c, x)
		x.Data()[i] = orig - h
		down := cellLoss(t, c, x)
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if d := math.Abs(num - dx.Data()[i]); d > tol*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: analytic %g vs numeric %g", i, dx.Data()[i], num)
		}
	}
	for _, p := range c.Params() {
		for i := range p.Value.Data() {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + h
			up := cellLoss(t, c, x)
			p.Value.Data()[i] = orig - h
			down := cellLoss(t, c, x)
			p.Value.Data()[i] = orig
			num := (up - down) / (2 * h)
			if d := math.Abs(num - p.Grad.Data()[i]); d > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", p.Name, i, p.Grad.Data()[i], num)
			}
		}
	}
}

func TestBiLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBiLSTM("bi", rng, 2, 3)
	x := tensor.Randn(rng, 0.8, 4, 2)

	loss := func() float64 {
		y, _, err := b.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i, v := range y.Data() {
			s += v * (math.Cos(float64(i)*0.5) + 1.3)
		}
		return s
	}

	for _, p := range b.Params() {
		p.ZeroGrad()
	}
	y, cache, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(y.Shape()...)
	for i := range grad.Data() {
		grad.Data()[i] = math.Cos(float64(i)*0.5) + 1.3
	}
	dx, err := b.Backward(cache, grad)
	if err != nil {
		t.Fatal(err)
	}

	const h = 1e-6
	const tol = 1e-4
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := loss()
		x.Data()[i] = orig - h
		down := loss()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if d := math.Abs(num - dx.Data()[i]); d > tol*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: analytic %g vs numeric %g", i, dx.Data()[i], num)
		}
	}
	for _, p := range b.Params() {
		for i := range p.Value.Data() {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + h
			up := loss()
			p.Value.Data()[i] = orig - h
			down := loss()
			p.Value.Data()[i] = orig
			num := (up - down) / (2 * h)
			if d := math.Abs(num - p.Grad.Data()[i]); d > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", p.Name, i, p.Grad.Data()[i], num)
			}
		}
	}
}

func TestLSTMCellShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewLSTMCell("cell", rng, 3, 4)
	if _, _, err := c.Forward(tensor.New(5, 2)); err == nil {
		t.Fatal("expected input width error")
	}
	_, cache, err := c.Forward(tensor.New(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backward(cache, tensor.New(5, 3)); err == nil {
		t.Fatal("expected grad width error")
	}
}

func TestBiLSTMOutWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBiLSTM("bi", rng, 3, 5)
	if b.OutWidth() != 10 {
		t.Fatalf("OutWidth = %d, want 10", b.OutWidth())
	}
	y, _, err := b.Forward(tensor.New(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 7 || y.Dim(1) != 10 {
		t.Fatalf("output shape %v", y.Shape())
	}
}

func TestReverseRows(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	r := reverseRows(x)
	if r.At(0, 0) != 5 || r.At(2, 1) != 2 {
		t.Fatalf("reverseRows = %v", r.Data())
	}
	rr := reverseRows(r)
	for i := range x.Data() {
		if rr.Data()[i] != x.Data()[i] {
			t.Fatal("double reverse is not identity")
		}
	}
}

func TestClassifierConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bad := []Config{
		{Input: 0, Hidden: 4, Layers: 1, Classes: 2},
		{Input: 3, Hidden: 0, Layers: 1, Classes: 2},
		{Input: 3, Hidden: 4, Layers: 0, Classes: 2},
		{Input: 3, Hidden: 4, Layers: 1, Classes: 1},
	}
	for i, cfg := range bad {
		if _, err := NewClassifier("c", rng, cfg); err == nil {
			t.Fatalf("case %d: expected config error for %+v", i, cfg)
		}
	}
}

// makeToySequences builds sequences where the class is determined by temporal
// structure (rising, falling, or oscillating signal) — invisible to any
// per-step classifier, so solving it requires recurrence.
func makeToySequences(rng *rand.Rand, n, T int) ([]*tensor.Tensor, []int) {
	seqs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := range seqs {
		class := rng.Intn(3)
		labels[i] = class
		s := tensor.New(T, 2)
		phase := rng.Float64() * math.Pi
		for t := 0; t < T; t++ {
			ft := float64(t) / float64(T)
			var v float64
			switch class {
			case 0:
				v = ft // rising
			case 1:
				v = 1 - ft // falling
			default:
				v = 0.5 + 0.5*math.Sin(6*ft*math.Pi+phase) // oscillating
			}
			s.Set(v+rng.NormFloat64()*0.05, t, 0)
			s.Set(rng.NormFloat64()*0.05, t, 1)
		}
		seqs[i] = s
	}
	return seqs, labels
}

func TestClassifierLearnsTemporalStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(6))
	seqs, labels := makeToySequences(rng, 150, 20)
	c, err := NewClassifier("rnn", rng, Config{Input: 2, Hidden: 12, Layers: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := c.Train(nn.NewAdam(0.01), rng, seqs, labels, TrainConfig{Epochs: 15, BatchSize: 8, ClipNorm: 5})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	acc, err := c.Evaluate(seqs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("train accuracy = %g, want >= 0.9", acc)
	}
	probs, err := c.PredictProbs(seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum = %g", sum)
	}
}

func TestUnidirectionalClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := NewClassifier("uni", rng, Config{Input: 2, Hidden: 6, Layers: 2, Classes: 3, Unidirectional: true})
	if err != nil {
		t.Fatal(err)
	}
	// A unidirectional stack has half the recurrent parameters of a
	// bidirectional one (heads differ too, so compare recurrent widths).
	if got := c.layers[0].OutWidth(); got != 6 {
		t.Fatalf("uni OutWidth = %d, want 6", got)
	}
	seqs, labels := makeToySequences(rng, 30, 10)
	if _, err := c.Train(nn.NewAdam(0.01), rng, seqs, labels, TrainConfig{Epochs: 1, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(seqs, labels); err != nil {
		t.Fatal(err)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, err := NewClassifier("c", rng, Config{Input: 2, Hidden: 4, Layers: 1, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Train(nn.NewSGD(0.1), rng, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("expected empty-set error")
	}
	if _, err := c.Train(nn.NewSGD(0.1), rng, []*tensor.Tensor{tensor.New(3, 2)}, []int{0, 1}, TrainConfig{}); err == nil {
		t.Fatal("expected count mismatch error")
	}
	if _, err := c.Evaluate([]*tensor.Tensor{tensor.New(3, 2)}, nil); err == nil {
		t.Fatal("expected evaluate mismatch error")
	}
}

func TestDeepStackWidthsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, err := NewClassifier("deep", rng, Config{Input: 4, Hidden: 8, Layers: 2, Classes: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Layer 0: 4 -> 16; layer 1: 16 -> 16; head: 16 -> 5.
	if c.layers[1].(*BiLSTM).In() != 16 {
		t.Fatalf("layer 1 input = %d, want 16", c.layers[1].(*BiLSTM).In())
	}
	logits, err := c.Logits(tensor.New(20, 4))
	if err != nil {
		t.Fatal(err)
	}
	if logits.Dim(1) != 5 {
		t.Fatalf("logits width = %d, want 5", logits.Dim(1))
	}
}
