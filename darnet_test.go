package darnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"darnet/internal/core"
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
	covered := 0
	for _, row := range ev.ConfusionCNNRNN.Counts {
		for _, c := range row {
			covered += c
		}
	}
	if covered != test.Len() {
		t.Fatalf("evaluation covered %d of %d samples", covered, test.Len())
	}

	// Snapshot round trip: darnet-train saves, darnetd loads.
	var buf bytes.Buffer
	if err := eng.Save(&buf, tc.CNN, tc.RNNHidden, tc.RNNLayers); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadEngine(&buf)
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

// TestDistortFacade evaluates a frame classifier on distorted frames, the
// path darnet-eval's Figure 4 and Table 3 take through EvaluateNetwork.
func TestDistortFacade(t *testing.T) {
	cfg := DefaultDataset18Config()
	cfg.PerClass = 2
	ds, err := Generate18ClassDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildFrameCNN(rand.New(rand.NewSource(3)), cfg.ImgW, cfg.ImgH, 18, DefaultCNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []DistortionLevel{DistortLow, DistortMedium, DistortHigh} {
		acc, err := EvaluateNetwork(net, ds, level, CompactDistortionRatios())
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0 || acc > 1 || math.IsNaN(acc) {
			t.Fatalf("%v accuracy = %g", level, acc)
		}
	}
	if _, err := EvaluateNetwork(net, ds, DistortHigh+1, CompactDistortionRatios()); err == nil {
		t.Fatal("unknown distortion level accepted")
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

	if _, err := NewAlerter(AlertConfig{Enter: 0.2, Exit: 0.8}); err == nil {
		t.Fatal("inverted band accepted")
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
