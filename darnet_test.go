package darnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestClassNames(t *testing.T) {
	names := ClassNames()
	if len(names) != NumClasses {
		t.Fatalf("got %d class names", len(names))
	}
	if names[0] != "Normal Driving" || names[5] != "Reaching" {
		t.Fatalf("names = %v", names)
	}
}

func TestGenerateDatasetFacade(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Scale = 0.002
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Classes != NumClasses {
		t.Fatalf("classes = %d", ds.Classes)
	}
	cfg18 := DefaultDataset18Config()
	cfg18.PerClass = 2
	ds18, err := Generate18ClassDataset(cfg18)
	if err != nil {
		t.Fatal(err)
	}
	if ds18.Classes != 18 {
		t.Fatalf("18-class dataset has %d classes", ds18.Classes)
	}
}

func TestEngineFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := DefaultDatasetConfig()
	cfg.Scale = 0.004
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := ds.Split(rng, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultEngineTrainConfig()
	tc.CNNEpochs = 2
	tc.RNNEpochs = 1
	tc.RNNHidden = 8
	tc.RNNLayers = 1
	tc.SVMEpochs = 3
	eng, err := TrainEngine(train, tc)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateEngine(eng, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.ConfusionCNNRNN.Total() != test.Len() {
		t.Fatalf("evaluation covered %d of %d samples", ev.ConfusionCNNRNN.Total(), test.Len())
	}

	// Snapshot round trip through the facade.
	var buf bytes.Buffer
	if err := eng.Save(&buf, tc.CNN, tc.RNNHidden, tc.RNNLayers); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := test.Samples[0]
	a, err := eng.Classify(s.Frame.Pix, s.Window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Classify(s.Frame.Pix, s.Window)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class != b.Class {
		t.Fatal("loaded engine disagrees with original")
	}
}

func TestDistortFacade(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Scale = 0.002
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := ds.Samples[0].Frame
	tagged, err := Distort(frame, DistortMedium, CompactDistortionRatios())
	if err != nil {
		t.Fatal(err)
	}
	if tagged.Level != DistortMedium || tagged.Image.W != frame.W {
		t.Fatalf("tagged = %+v", tagged.Level)
	}
	pr := PaperDistortionRatios()
	if pr.Low != 3 || pr.Medium != 6 || pr.High != 12 {
		t.Fatalf("paper ratios = %+v", pr)
	}
}

func TestBuildAndTrainNetworkFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := DefaultDataset18Config()
	cfg.PerClass = 4
	ds, err := Generate18ClassDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	net, err := BuildFrameCNN(rng, cfg.ImgW, cfg.ImgH, 18, DefaultCNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	if err := TrainNetwork(net, ds, 1, 2, func(e int, l float64) { epochs++ }); err != nil {
		t.Fatal(err)
	}
	if epochs != 1 {
		t.Fatalf("progress saw %d epochs", epochs)
	}
	acc, err := EvaluateNetwork(net, ds, DistortNone, CompactDistortionRatios())
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 || math.IsNaN(acc) {
		t.Fatalf("accuracy = %g", acc)
	}
}

func TestProcessingPolicyFacade(t *testing.T) {
	p := DefaultProcessingPolicy()
	mode, level := p.Decide(NetworkConditions{BandwidthKbps: 5000, LatencyMillis: 10})
	if level != DistortNone {
		t.Fatalf("fat pipe level = %v", level)
	}
	_ = mode
}

func TestAlerterFacade(t *testing.T) {
	a, err := NewAlerter(AlertConfig{NormalClass: int(NormalDriving), Dwell: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	texting := &Classification{Class: int(Texting), Probs: []float64{0.1, 0, 0.9, 0, 0, 0}}
	normal := &Classification{Class: int(NormalDriving), Probs: []float64{0.9, 0, 0.1, 0, 0, 0}}
	at := func(s int) time.Time { return time.Unix(int64(s), 0) }
	if ev := a.Observe(at(1), texting); ev != AlertNone {
		t.Fatalf("first distracted window = %v", ev)
	}
	if ev := a.Observe(at(2), texting); ev != AlertRaised {
		t.Fatalf("second distracted window = %v", ev)
	}
	if ev := a.Observe(at(3), normal); ev != AlertNone {
		t.Fatalf("first normal window = %v", ev)
	}
	if ev := a.Observe(at(4), normal); ev != AlertCleared {
		t.Fatalf("second normal window = %v", ev)
	}

	report, err := EvaluateAlerts([]int{0, 2, 2, 0}, []*Classification{normal, texting, texting, normal},
		time.Second, AlertConfig{Dwell: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if report.Episodes != 1 || report.Detected != 1 || report.FalseAlerts != 0 {
		t.Fatalf("facade report = %+v", report)
	}
	if _, err := NewAlerter(AlertConfig{Enter: 0.2, Exit: 0.8}); err == nil {
		t.Fatal("inverted band accepted")
	}
}

func TestMultiCombinerFacade(t *testing.T) {
	mc, err := NewMultiCombiner(2, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{0, 1, 0, 1}
	if err := mc.Fit(labels, [][]int{{0, 1, 0, 1}, {0, 1, 0, 1}}, 0.5); err != nil {
		t.Fatal(err)
	}
	pred, err := mc.Predict([][]float64{{0.9, 0.1}, {0.8, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 0 {
		t.Fatalf("predicted %d", pred)
	}
}

func TestDatasetKFoldFacade(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Scale = 0.002
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	folds, err := ds.KFold(rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	drivers := ds.Drivers()
	if len(drivers) == 0 {
		t.Fatal("no drivers")
	}
	train, test, err := ds.SplitByDriver(drivers[0])
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != ds.Len() {
		t.Fatal("driver split loses samples")
	}
}
