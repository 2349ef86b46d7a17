package privacy

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/collect"
	"darnet/internal/nn"
	"darnet/internal/tensor"
	"darnet/internal/vision"
)

// paperRatios are the paper's 300×300 → 100×100 / 50×50 / 25×25 paths.
var paperRatios = Ratios{Low: 3, Medium: 6, High: 12}

func TestDownsampleRatios(t *testing.T) {
	pr := paperRatios
	tests := []struct {
		level collect.DistortionLevel
		want  int
	}{
		{collect.DistortNone, 1},
		{collect.DistortLow, 3},
		{collect.DistortMedium, 6},
		{collect.DistortHigh, 12},
	}
	for _, tt := range tests {
		got, err := pr.For(tt.level)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Fatalf("ratio(%v) = %d, want %d", tt.level, got, tt.want)
		}
	}
	if _, err := pr.For(collect.DistortionLevel(99)); err == nil {
		t.Fatal("expected unknown-level error")
	}
	cr := CompactRatios()
	if cr.Low >= cr.Medium || cr.Medium >= cr.High {
		t.Fatal("compact ratios must increase with distortion")
	}
}

func TestDistortPreservesGeometryAndTags(t *testing.T) {
	img := vision.MustNewImage(24, 24)
	for i := range img.Pix {
		img.Pix[i] = float64(i%7) / 7
	}
	for _, level := range []collect.DistortionLevel{collect.DistortNone, collect.DistortLow, collect.DistortMedium, collect.DistortHigh} {
		tf, err := Distort(img, level, paperRatios)
		if err != nil {
			t.Fatal(err)
		}
		if tf.Level != level {
			t.Fatalf("tag %v, want %v", tf.Level, level)
		}
		if tf.Image.W != 24 || tf.Image.H != 24 {
			t.Fatalf("distorted dims %dx%d", tf.Image.W, tf.Image.H)
		}
	}
	// None is the identity.
	tf, err := Distort(img, collect.DistortNone, paperRatios)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		if tf.Image.Pix[i] != img.Pix[i] {
			t.Fatal("level none must be identity")
		}
	}
	// None must not alias the input.
	tf.Image.Pix[0] = 0.123
	if img.Pix[0] == 0.123 {
		t.Fatal("distorted frame aliases input")
	}
}

func TestDistortDestroysInformationMonotonically(t *testing.T) {
	// Higher distortion must lose at least as much detail: count distinct
	// values in the distorted frame.
	rng := rand.New(rand.NewSource(1))
	img := vision.MustNewImage(24, 24)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	distinct := func(level collect.DistortionLevel) int {
		tf, err := Distort(img, level, paperRatios)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[float64]bool{}
		for _, v := range tf.Image.Pix {
			seen[v] = true
		}
		return len(seen)
	}
	none := distinct(collect.DistortNone)
	low := distinct(collect.DistortLow)
	med := distinct(collect.DistortMedium)
	high := distinct(collect.DistortHigh)
	if !(none >= low && low >= med && med >= high) {
		t.Fatalf("distinct values not monotone: %d %d %d %d", none, low, med, high)
	}
	if high > 4 { // 24/12 = 2x2 blocks
		t.Fatalf("high distortion kept %d distinct values, want <= 4", high)
	}
}

func TestDistortRowsValidation(t *testing.T) {
	if _, err := DistortRows(tensor.New(2, 10), 4, 4, collect.DistortLow, paperRatios); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestRouterRoutesByTag(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRouter()
	modelA := nn.NewSequential("a", nn.NewDense("fc", rng, 16, 2))
	modelB := nn.NewSequential("b", nn.NewDense("fc", rng, 16, 2))
	r.Register(collect.DistortNone, modelA)
	r.Register(collect.DistortHigh, modelB)
	if len(r.Levels()) != 2 {
		t.Fatalf("levels = %v", r.Levels())
	}

	img := vision.MustNewImage(4, 4)
	img.Fill(0.5)
	probs, err := r.Classify(&TaggedFrame{Level: collect.DistortNone, Image: img})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("router probs sum to %g", sum)
	}
	if _, err := r.Classify(&TaggedFrame{Level: collect.DistortMedium, Image: img}); err == nil {
		t.Fatal("expected unregistered-level error")
	}
}

// distillFixture trains a teacher on a trivially separable frame task and
// returns everything needed for distillation tests.
func distillFixture(t *testing.T, rng *rand.Rand) (teacher *nn.Sequential, build StudentBuilder, frames *tensor.Tensor, labels []int, w, h int) {
	t.Helper()
	w, h = 16, 16
	const n = 120
	frames = tensor.New(n, w*h)
	labels = make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		row := frames.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 0.1
		}
		// Class 0: bright left half; class 1: bright right half. Survives
		// heavy down-sampling by construction.
		x0 := 0
		if c == 1 {
			x0 = w / 2
		}
		for y := 0; y < h; y++ {
			for x := x0; x < x0+w/2; x++ {
				row[y*w+x] = 0.9
			}
		}
	}
	teacher = buildTestCNN(rng, w, h, 2)
	opt := nn.NewAdam(0.003)
	if _, err := nn.TrainClassifier(teacher, opt, rng, frames, labels, nn.TrainConfig{Epochs: 8, BatchSize: 16}); err != nil {
		t.Fatal(err)
	}
	build = func(rng *rand.Rand) (*nn.Sequential, error) {
		return buildTestCNN(rng, w, h, 2), nil
	}
	return teacher, build, frames, labels, w, h
}

// buildTestCNN is a compact conv net for distillation tests (the production
// architecture lives in internal/core, which privacy cannot import without a
// cycle).
func buildTestCNN(rng *rand.Rand, w, h, classes int) *nn.Sequential {
	net := nn.NewSequential("testcnn")
	net.Add(nn.NewConv2D("c0", rng, tensor.ConvGeom{
		InC: 1, InH: h, InW: w, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
	}, 6))
	net.Add(nn.NewBatchNorm("bn0", 6*h*w, 6))
	net.Add(nn.NewReLU())
	net.Add(nn.NewMaxPool2D("p0", tensor.ConvGeom{
		InC: 6, InH: h, InW: w, KH: 2, KW: 2, StrideH: 2, StrideW: 2,
	}))
	net.Add(nn.NewGlobalAvgPool("gap", 6, h/2, w/2))
	net.Add(nn.NewDense("head", rng, 6, classes))
	return net
}

// accuracyOn evaluates Top-1 accuracy of net on (frames, labels).
func accuracyOn(t *testing.T, net *nn.Sequential, frames *tensor.Tensor, labels []int) float64 {
	t.Helper()
	pred, err := nn.PredictClasses(net, frames)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := nn.Accuracy(pred, labels)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestDistillProducesWorkingStudent(t *testing.T) {
	if testing.Short() {
		t.Skip("distillation training skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(3))
	teacher, build, frames, labels, w, h := distillFixture(t, rng)

	teacherAcc := accuracyOn(t, teacher, frames, labels)
	if teacherAcc < 0.95 {
		t.Fatalf("teacher accuracy %g too low for a meaningful distillation test", teacherAcc)
	}

	cfg := DefaultDistillConfig()
	cfg.Epochs = 8
	var epochs int
	cfg.Progress = func(epoch int, loss float64) { epochs++ }
	student, err := Distill(teacher, build, frames, w, h, collect.DistortLow, paperRatios, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 8 {
		t.Fatalf("progress saw %d epochs", epochs)
	}

	// Evaluate the student on distorted frames (its operating condition).
	distorted, err := DistortRows(frames, w, h, collect.DistortLow, paperRatios)
	if err != nil {
		t.Fatal(err)
	}
	studentAcc := accuracyOn(t, student, distorted, labels)
	if studentAcc < 0.9 {
		t.Fatalf("dCNN-L student accuracy = %g on a half-frame task that survives 3x down-sampling", studentAcc)
	}
}

func TestDistillValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	teacher := nn.NewSequential("t", nn.NewDense("fc", rng, 4, 2))
	build := func(rng *rand.Rand) (*nn.Sequential, error) {
		return nn.NewSequential("s", nn.NewDense("fc", rng, 4, 2)), nil
	}
	frames := tensor.New(4, 4)
	if _, err := Distill(teacher, build, frames, 2, 2, collect.DistortLow, paperRatios, rng, DistillConfig{}); err == nil {
		t.Fatal("expected config validation error")
	}
	cfg := DefaultDistillConfig()
	if _, err := Distill(teacher, build, tensor.New(0, 4), 2, 2, collect.DistortLow, paperRatios, rng, cfg); err == nil {
		t.Fatal("expected empty-frames error")
	}
}

func TestDistillInitFromTeacherCopiesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A linear "teacher" whose weights are recognizable.
	teacher := nn.NewSequential("t", nn.NewDense("fc", rng, 4, 2))
	teacher.Params()[0].Value.Fill(0.777)
	var student *nn.Sequential
	build := func(rng *rand.Rand) (*nn.Sequential, error) {
		student = nn.NewSequential("s", nn.NewDense("fc", rng, 4, 2))
		return student, nil
	}
	frames := tensor.Full(0.5, 8, 4)
	cfg := DefaultDistillConfig()
	cfg.Epochs = 1
	cfg.LR = 1e-9 // keep weights essentially unchanged
	if _, err := Distill(teacher, build, frames, 2, 2, collect.DistortLow, paperRatios, rng, cfg); err != nil {
		t.Fatal(err)
	}
	if math.Abs(student.Params()[0].Value.Data()[0]-0.777) > 1e-3 {
		t.Fatalf("student weight = %g, want ~0.777 from teacher init", student.Params()[0].Value.Data()[0])
	}
}

func TestDistillWithTemperatureObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("distillation training skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(6))
	teacher, build, frames, labels, w, h := distillFixture(t, rng)
	cfg := DefaultDistillConfig()
	cfg.Epochs = 8
	cfg.Temperature = 3 // softened-CE objective instead of the paper's L2
	student, err := Distill(teacher, build, frames, w, h, collect.DistortLow, paperRatios, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	distorted, err := DistortRows(frames, w, h, collect.DistortLow, paperRatios)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, student, distorted, labels); acc < 0.9 {
		t.Fatalf("temperature-distilled accuracy = %g", acc)
	}
}
