package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/rnn"
	"darnet/internal/tensor"
)

// sharedEngine trains a small engine with the served architectures (the
// MicroInception CNN and a BiLSTM) and returns it with its training pairs.
func sharedEngine(t *testing.T) (*core.Engine, *core.Data) {
	t.Helper()
	const n, w, h, classes = 24, 16, 16, 3
	rng := rand.New(rand.NewSource(21))
	d := &core.Data{
		Frames: tensor.New(n, w*h), Labels: make([]int, n), IMULabels: make([]int, n),
		Windows: make([]imu.Window, n), ImgW: w, ImgH: h, Classes: classes, IMUClasses: classes,
		ClassMap: []int{0, 1, 2},
	}
	for i := 0; i < n; i++ {
		c := i % classes
		d.Labels[i], d.IMULabels[i] = c, c
		row := d.Frames.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 0.2
			if (j%w)/(w/classes) == c {
				row[j] += 0.7
			}
		}
		samples := make([]imu.Sample, imu.WindowSize)
		for s := range samples {
			samples[s].TimestampMillis = int64(s * 250)
			samples[s].Accel[0] = float64(c)*2 + rng.NormFloat64()*0.3
			samples[s].Gyro[1] = rng.NormFloat64() * 0.1
			samples[s].Gravity[1] = 9.8
			samples[s].Rotation[3] = 1
		}
		d.Windows[i] = imu.Window{Samples: samples}
	}
	cfg := core.DefaultTrainConfig()
	cfg.CNNEpochs, cfg.RNNEpochs, cfg.SVMEpochs = 1, 1, 1
	cfg.RNNHidden, cfg.RNNLayers = 8, 2
	eng, err := core.Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameClassification reports whether two classifications agree bit for bit:
// decision, mode, confidence, posterior and both parent distributions.
func sameClassification(a, b *core.Classification) bool {
	return a.Class == b.Class && a.Mode == b.Mode &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		sameBits(a.Probs, b.Probs) && sameBits(a.CNNProbs, b.CNNProbs) && sameBits(a.RNNProbs, b.RNNProbs)
}

// tickWindow feeds one window's samples through tk, frameless, and returns
// the decision its last sample makes; no earlier sample may decide.
func tickWindow(t *testing.T, tk Ticker, w imu.Window) *core.Classification {
	t.Helper()
	for s := range w.Samples {
		cls, _, err := tk.Tick(&w.Samples[s], nil, false)
		if err != nil {
			t.Fatalf("sample %d: %v", s, err)
		}
		if (cls != nil) != (s == len(w.Samples)-1) {
			t.Fatalf("sample %d of %d: decision %v", s, len(w.Samples), cls)
		}
		if cls != nil {
			return cls
		}
	}
	return nil
}

// TestSharedEngineConcurrentInference shares one trained engine the way
// darnetd does: 8 goroutines call ClassifyCtx, FrameProbs and
// RNN.PredictProbs while 4 pipelines built from EngineTickerFactory stream
// windows through it. Every result must equal the single-goroutine result
// bit for bit, and each serial ticker decision must equal ClassifyCtx on its
// window and last frame, framed or frameless. Under -race this fails if
// inference writes any state the engine's callers share.
func TestSharedEngineConcurrentInference(t *testing.T) {
	eng, d := sharedEngine(t)
	const pairs, windows = 6, 3

	// Single-goroutine references.
	refCls := make([]*core.Classification, pairs)
	refCNN := make([][]float64, pairs)
	refRNN := make([][]float64, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		if refCls[i], err = eng.ClassifyCtx(context.Background(), d.Frames.Row(i), d.Windows[i]); err != nil {
			t.Fatal(err)
		}
		if refCNN[i], err = eng.FrameProbs(d.Frames.Row(i)); err != nil {
			t.Fatal(err)
		}
		if refRNN[i], err = eng.RNN.PredictProbs(eng.IMUStats.Normalize(d.Windows[i])); err != nil {
			t.Fatal(err)
		}
	}
	// The stream script: each window's samples, a frame on every fifth.
	var script []Input
	for i := 0; i < windows; i++ {
		for s := range d.Windows[i].Samples {
			in := Input{Sample: &d.Windows[i].Samples[s], Weight: 1}
			if s%5 == 0 {
				in.Frame = d.Frames.Row(i)
			}
			script = append(script, in)
		}
	}
	tk, err := EngineTickerFactory(eng)()
	if err != nil {
		t.Fatal(err)
	}
	var refStream []*core.Classification
	for _, in := range script {
		cls, _, err := tk.Tick(in.Sample, in.Frame, false)
		if err != nil {
			t.Fatal(err)
		}
		if cls != nil {
			refStream = append(refStream, cls)
		}
	}
	if len(refStream) != windows {
		t.Fatalf("reference stream made %d decisions, want %d", len(refStream), windows)
	}
	// The ticker runs ClassifyCtx's stages: window w's last frame is
	// Frames.Row(w), so its decision is ClassifyCtx(frame_w, window_w).
	for w, cls := range refStream {
		if !sameClassification(cls, refCls[w]) {
			t.Fatalf("ticker window %d: %+v, ClassifyCtx %+v", w, cls, refCls[w])
		}
	}
	// Without frames every decision is ClassifyCtx(nil, window) in
	// ModeRNNOnly.
	frameless, err := EngineTickerFactory(eng)()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < windows; w++ {
		want, err := eng.ClassifyCtx(context.Background(), nil, d.Windows[w])
		if err != nil {
			t.Fatal(err)
		}
		cls := tickWindow(t, frameless, d.Windows[w])
		if cls.Mode != core.ModeRNNOnly || !sameClassification(cls, want) {
			t.Fatalf("frameless window %d: %+v, ClassifyCtx(nil, window) %+v", w, cls, want)
		}
	}
	if _, err := eng.Fuse(nil, nil); err == nil {
		t.Fatal("Fuse(nil, nil) must fail")
	}

	var mu sync.Mutex
	got := map[string][]*core.Classification{}
	var pipes []*Pipeline
	for p := 0; p < 4; p++ {
		pl, err := NewPipeline(fmt.Sprintf("agent%d", p), Config{
			QueueCap: len(script), StallTimeout: time.Hour,
			OnDecision: func(id string, cls *core.Classification) {
				mu.Lock()
				got[id] = append(got[id], cls)
				mu.Unlock()
			},
		}, EngineTickerFactory(eng))
		if err != nil {
			t.Fatal(err)
		}
		pipes = append(pipes, pl)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3*pairs; iter++ {
				i := (g + iter) % pairs
				cls, err := eng.ClassifyCtx(context.Background(), d.Frames.Row(i), d.Windows[i])
				if err != nil || cls.Class != refCls[i].Class || !sameBits(cls.Probs, refCls[i].Probs) {
					errs <- fmt.Sprintf("ClassifyCtx pair %d: %v, %v; serial %v", i, cls, err, refCls[i])
					return
				}
				if p, err := eng.FrameProbs(d.Frames.Row(i)); err != nil || !sameBits(p, refCNN[i]) {
					errs <- fmt.Sprintf("FrameProbs pair %d: %v, %v; serial %v", i, p, err, refCNN[i])
					return
				}
				if p, err := eng.RNN.PredictProbs(eng.IMUStats.Normalize(d.Windows[i])); err != nil || !sameBits(p, refRNN[i]) {
					errs <- fmt.Sprintf("RNN.PredictProbs pair %d: %v, %v; serial %v", i, p, err, refRNN[i])
					return
				}
			}
		}(g)
	}
	for _, pl := range pipes {
		wg.Add(1)
		go func(pl *Pipeline) {
			defer wg.Done()
			for _, in := range script {
				if !pl.Offer(in) {
					errs <- "pipeline shed an input"
					return
				}
			}
		}(pl)
	}
	wg.Wait()
	for _, pl := range pipes {
		waitFor(t, "pipeline decisions", func() bool { return pl.Stats().Decisions >= windows })
		pl.Shutdown()
	}
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, decisions := range got {
		if len(decisions) != windows {
			t.Fatalf("%s made %d decisions, want %d", id, len(decisions), windows)
		}
		for w, cls := range decisions {
			if ref := refStream[w]; !sameClassification(cls, ref) {
				t.Fatalf("%s window %d: %+v, serial %+v", id, w, cls, ref)
			}
		}
	}
}

// TestEngineTickerRecoversFromFailedWindow swaps in an RNN of the wrong input
// width for one window: that window's tick fails, and the next window's
// decision is still ClassifyCtx's, because the ticker drops a window before
// classifying it.
func TestEngineTickerRecoversFromFailedWindow(t *testing.T) {
	eng, d := sharedEngine(t)
	bad, err := rnn.NewClassifier("bad", rand.New(rand.NewSource(1)), rnn.Config{
		Input: imu.FeatureDim + 1, Hidden: 2, Layers: 1, Classes: eng.IMUClasses,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := EngineTickerFactory(eng)()
	if err != nil {
		t.Fatal(err)
	}
	frame := d.Frames.Row(0)
	if _, _, err := tk.Tick(nil, frame, false); err != nil {
		t.Fatal(err)
	}
	samples := d.Windows[0].Samples
	last := len(samples) - 1
	for s := range samples[:last] {
		if cls, _, err := tk.Tick(&samples[s], nil, false); cls != nil || err != nil {
			t.Fatalf("sample %d: %v, %v before the window completed", s, cls, err)
		}
	}
	good := eng.RNN
	eng.RNN = bad
	cls, _, err := tk.Tick(&samples[last], nil, false)
	eng.RNN = good
	if err == nil {
		t.Fatalf("window with the wrong-width RNN decided %+v", cls)
	}

	want, err := eng.ClassifyCtx(context.Background(), frame, d.Windows[1])
	if err != nil {
		t.Fatal(err)
	}
	if cls := tickWindow(t, tk, d.Windows[1]); !sameClassification(cls, want) {
		t.Fatalf("window after the failure: %+v, ClassifyCtx %+v", cls, want)
	}
}
