package core

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/imu"
)

// trainTinyEngine trains a small but functional engine for degraded-mode
// tests (shared via t.Run subtests to pay the training cost once).
func trainTinyEngine(t *testing.T) (*Engine, *Data) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	train := tinyData(rng, 60, 16, 16, 3, 3)
	cfg := DefaultTrainConfig()
	cfg.CNNEpochs = 8
	cfg.RNNEpochs = 3
	cfg.RNNHidden = 8
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 5
	eng, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, train
}

func checkDistribution(t *testing.T, probs []float64, n int) {
	t.Helper()
	if len(probs) != n {
		t.Fatalf("posterior has %d entries, want %d", len(probs), n)
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("posterior entry %v out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %v, want 1", sum)
	}
}

func TestClassifyDegradedModes(t *testing.T) {
	if testing.Short() {
		t.Skip("degraded-mode training skipped in -short mode")
	}
	eng, train := trainTinyEngine(t)
	frame := train.Frames.Row(0)
	window := train.Windows[0]

	t.Run("fused", func(t *testing.T) {
		c, err := eng.Classify(frame, window)
		if err != nil {
			t.Fatal(err)
		}
		if c.Mode != ModeFused || c.Degraded() {
			t.Fatalf("mode = %v, want fused", c.Mode)
		}
		if c.CNNProbs == nil || c.RNNProbs == nil {
			t.Fatal("fused classification must expose both parent distributions")
		}
		if c.Confidence != c.Probs[c.Class] {
			t.Fatalf("fused confidence %v != posterior peak %v", c.Confidence, c.Probs[c.Class])
		}
	})

	t.Run("cnn-only when window absent", func(t *testing.T) {
		before := mDegraded.Value()
		c, err := eng.Classify(frame, imu.Window{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Mode != ModeCNNOnly || !c.Degraded() {
			t.Fatalf("mode = %v, want cnn-only", c.Mode)
		}
		if c.RNNProbs != nil {
			t.Fatal("absent modality must report a nil distribution")
		}
		checkDistribution(t, c.Probs, eng.Classes)
		if want := c.Probs[c.Class] * DegradedConfidenceDiscount; c.Confidence != want {
			t.Fatalf("confidence %v, want discounted %v", c.Confidence, want)
		}
		if got := mDegraded.Value() - before; got != 1 {
			t.Fatalf("darnet_core_degraded_classify_total moved by %d, want 1", got)
		}
		// With a uniform RNN parent the decision is the CNN's evidence through
		// the BN: it must agree with the CNN's own argmax reweighted by class
		// priors — at minimum it must still be a coherent decision.
		full, err := eng.Classify(frame, window)
		if err != nil {
			t.Fatal(err)
		}
		if full.Mode != ModeFused {
			t.Fatalf("control classification degraded unexpectedly: %v", full.Mode)
		}
	})

	t.Run("rnn-only when frame absent", func(t *testing.T) {
		before := mDegraded.Value()
		c, err := eng.Classify(nil, window)
		if err != nil {
			t.Fatal(err)
		}
		if c.Mode != ModeRNNOnly || !c.Degraded() {
			t.Fatalf("mode = %v, want rnn-only", c.Mode)
		}
		if c.CNNProbs != nil {
			t.Fatal("absent modality must report a nil distribution")
		}
		checkDistribution(t, c.Probs, eng.Classes)
		if want := c.Probs[c.Class] * DegradedConfidenceDiscount; c.Confidence != want {
			t.Fatalf("confidence %v, want discounted %v", c.Confidence, want)
		}
		if got := mDegraded.Value() - before; got != 1 {
			t.Fatalf("darnet_core_degraded_classify_total moved by %d, want 1", got)
		}
	})

	t.Run("both absent errors", func(t *testing.T) {
		if _, err := eng.Classify(nil, imu.Window{}); err == nil {
			t.Fatal("classify with no modalities must fail")
		}
	})

	t.Run("bad frame still rejected", func(t *testing.T) {
		if _, err := eng.Classify([]float64{1, 2, 3}, window); err == nil {
			t.Fatal("wrong-size frame must fail, not silently degrade")
		}
	})
}

func TestClassifyModeStrings(t *testing.T) {
	cases := map[ClassifyMode]string{
		ModeFused:       "fused",
		ModeCNNOnly:     "cnn-only",
		ModeRNNOnly:     "rnn-only",
		ClassifyMode(9): "ClassifyMode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestClassifyNonFinitePixel: frame pixels come off the wire checked only
// for count, so a NaN pixel must classify like any frame (the CNN's ReLU
// maps the NaN activations it causes to 0) rather than poison the
// posterior.
func TestClassifyNonFinitePixel(t *testing.T) {
	if testing.Short() {
		t.Skip("engine training skipped in -short mode")
	}
	eng, train := trainTinyEngine(t)
	frame := append([]float64(nil), train.Frames.Row(0)...)
	frame[len(frame)/2] = math.NaN()
	c, err := eng.Classify(frame, train.Windows[0])
	if err != nil {
		t.Fatalf("classify with a NaN pixel: %v", err)
	}
	checkDistribution(t, c.CNNProbs, eng.Classes)
	checkDistribution(t, c.Probs, eng.Classes)
}
