package core

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/imu"
	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// tinyData builds a small aligned multi-modal dataset with a learnable
// structure: frames carry a class-dependent bright square, windows carry a
// class-dependent accelerometer offset in the 3-class IMU space.
func tinyData(rng *rand.Rand, n, w, h, classes, imuClasses int) *Data {
	frames := tensor.New(n, w*h)
	labels := make([]int, n)
	imuLabels := make([]int, n)
	windows := make([]imu.Window, n)
	classMap := make([]int, classes)
	for c := range classMap {
		classMap[c] = c % imuClasses
	}
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		imuLabels[i] = classMap[c]
		row := frames.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 0.1
		}
		// Class-dependent bright column block, 3 pixels wide.
		x0 := (c * w) / classes
		for y := 0; y < h; y++ {
			for dx := 0; dx < 3 && x0+dx < w; dx++ {
				row[y*w+x0+dx] = 0.9
			}
		}
		samples := make([]imu.Sample, imu.WindowSize)
		for t := range samples {
			samples[t].TimestampMillis = int64(t * 250)
			samples[t].Accel[0] = float64(imuLabels[i])*3 + rng.NormFloat64()*0.2
			samples[t].Gravity[1] = 9.8
			samples[t].Rotation[3] = 1
		}
		windows[i] = imu.Window{Samples: samples}
	}
	return &Data{
		Frames: frames, Windows: windows, Labels: labels, IMULabels: imuLabels,
		ImgW: w, ImgH: h, Classes: classes, IMUClasses: imuClasses, ClassMap: classMap,
	}
}

func TestDataValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := tinyData(rng, 12, 8, 8, 4, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid data rejected: %v", err)
	}

	bad := tinyData(rng, 12, 8, 8, 4, 3)
	bad.Labels = bad.Labels[:5]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected label-count error")
	}

	bad = tinyData(rng, 12, 8, 8, 4, 3)
	bad.ImgW = 7
	if err := bad.Validate(); err == nil {
		t.Fatal("expected frame-width error")
	}

	bad = tinyData(rng, 12, 8, 8, 4, 3)
	bad.Windows = bad.Windows[:3]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected IMU misalignment error")
	}

	bad = tinyData(rng, 12, 8, 8, 4, 3)
	bad.ClassMap = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected class-map error")
	}
}

func TestBuildFrameCNNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := BuildFrameCNN(rng, 16, 16, 5, DefaultCNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.OutFeatures(16 * 16)
	if err != nil {
		t.Fatal(err)
	}
	if out != 5 {
		t.Fatalf("CNN OutFeatures = %d, want 5", out)
	}
	if _, err := BuildFrameCNN(rng, 4, 4, 5, DefaultCNNConfig()); err == nil {
		t.Fatal("expected min-size error")
	}
	if _, err := BuildFrameCNN(rng, 16, 16, 1, DefaultCNNConfig()); err == nil {
		t.Fatal("expected class-count error")
	}
}

func TestBuildPlainCNNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := BuildPlainCNN(rng, 16, 16, 4, DefaultCNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.OutFeatures(16 * 16)
	if err != nil {
		t.Fatal(err)
	}
	if out != 4 {
		t.Fatalf("plain CNN OutFeatures = %d, want 4", out)
	}
	if _, err := BuildPlainCNN(rng, 2, 2, 4, DefaultCNNConfig()); err == nil {
		t.Fatal("expected min-size error")
	}
}

func TestTrainAndEvaluateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(4))
	train := tinyData(rng, 90, 16, 16, 3, 3)
	test := tinyData(rng, 30, 16, 16, 3, 3)

	cfg := DefaultTrainConfig()
	cfg.CNNEpochs = 15
	cfg.RNNEpochs = 4
	cfg.RNNHidden = 8
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 10
	var stages []string
	cfg.Progress = func(stage string, epoch int, loss float64) {
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			stages = append(stages, stage)
		}
	}
	eng, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"cnn", "rnn", "svm", "combiner"}
	if len(stages) != len(wantStages) {
		t.Fatalf("stages = %v", stages)
	}
	for i, s := range wantStages {
		if stages[i] != s {
			t.Fatalf("stages = %v, want %v", stages, wantStages)
		}
	}

	ev, err := eng.Evaluate(test, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	// The tiny task is fully learnable by every modality.
	if ev.CNN < 0.8 {
		t.Fatalf("CNN accuracy = %g on trivially separable frames", ev.CNN)
	}
	if ev.RNNOnly < 0.8 || ev.SVMOnly < 0.8 {
		t.Fatalf("IMU accuracies = %g / %g on trivially separable windows", ev.RNNOnly, ev.SVMOnly)
	}
	if ev.CNNRNN < ev.CNN-0.1 {
		t.Fatalf("ensemble (%g) collapsed below CNN (%g)", ev.CNNRNN, ev.CNN)
	}
	total := 0
	for _, row := range ev.ConfusionCNNRNN.Counts {
		for _, c := range row {
			total += c
		}
	}
	if total != test.Len() {
		t.Fatalf("confusion total = %d", total)
	}
	if ev.CNNECE < 0 || ev.CNNECE > 1 || ev.FusedECE < 0 || ev.FusedECE > 1 {
		t.Fatalf("calibration errors out of range: %g / %g", ev.CNNECE, ev.FusedECE)
	}

	// Classify: fused posterior is a distribution over full classes.
	res, err := eng.Classify(test.Frames.Row(0), test.Windows[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probs) != 3 || len(res.RNNProbs) != 3 || len(res.CNNProbs) != 3 {
		t.Fatalf("classification shapes wrong: %+v", res)
	}
	sum := 0.0
	for _, p := range res.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %g", sum)
	}
	if res.Class != test.Labels[0] {
		t.Logf("note: fused class %d != label %d (allowed but unexpected on separable data)", res.Class, test.Labels[0])
	}

	if _, err := eng.Classify(make([]float64, 5), test.Windows[0]); err == nil {
		t.Fatal("expected frame-size error")
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := tinyData(rng, 12, 8, 8, 3, 3)
	d.Windows = nil
	d.IMULabels = nil
	d.ClassMap = nil
	if _, err := Train(d, DefaultTrainConfig()); err == nil {
		t.Fatal("expected missing-IMU error")
	}
}

func TestEvaluateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train := tinyData(rng, 30, 8, 8, 3, 3)
	cfg := DefaultTrainConfig()
	cfg.CNNEpochs = 1
	cfg.RNNEpochs = 1
	cfg.RNNHidden = 4
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 2
	eng, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test := tinyData(rng, 9, 8, 8, 3, 3)
	if _, err := eng.Evaluate(test, []string{"a", "b"}); err == nil {
		t.Fatal("expected class-name count error")
	}
	imageOnly := tinyData(rng, 9, 8, 8, 3, 3)
	imageOnly.Windows = nil
	imageOnly.IMULabels = nil
	imageOnly.ClassMap = nil
	if _, err := eng.Evaluate(imageOnly, []string{"a", "b", "c"}); err == nil {
		t.Fatal("expected missing-IMU error")
	}
}

func TestEvaluateCNNOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := nn.NewSequential("toy", nn.NewDense("fc", rng, 4, 2))
	x := tensor.MustFromSlice([]float64{
		1, 0, 0, 0,
		0, 0, 0, 1,
	}, 2, 4)
	acc, err := EvaluateCNNOnly(net, x, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %g", acc)
	}
}
