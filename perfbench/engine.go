package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/synth"
)

// Engine training budget. The engine only has to have the paper's
// architecture and real weights: inference cost does not depend on how well
// it was trained, so a few seconds of training is enough and keeps set-up
// short.
const (
	datasetScale = 0.0025
	trainEpochs  = 1
)

// pair is one held-out (frame, window) observation.
type pair struct {
	frame  []float64
	window imu.Window
}

// buildEngine is the engine set-up every workload that classifies shares:
// generate the dataset from the seed, train a small engine on its training
// split, and round-trip it through Engine.Save and core.LoadEngine as
// darnetd's -engine flag does. It returns the loaded engine and the held-out
// pairs.
func buildEngine(seed int64) (*core.Engine, []pair, error) {
	dcfg := synth.DefaultConfig()
	dcfg.Scale = datasetScale
	dcfg.Seed = seed
	ds, err := synth.GenerateTable1(dcfg)
	if err != nil {
		return nil, nil, err
	}
	train, test, err := ds.Split(rand.New(rand.NewSource(seed)), 0.2)
	if err != nil {
		return nil, nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Seed = seed
	tc.CNNEpochs, tc.RNNEpochs, tc.SVMEpochs = trainEpochs, trainEpochs, trainEpochs
	trained, err := core.Train(train.CoreData(), tc)
	if err != nil {
		return nil, nil, fmt.Errorf("train engine: %w", err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf, tc.CNN, tc.RNNHidden, tc.RNNLayers); err != nil {
		return nil, nil, fmt.Errorf("save engine: %w", err)
	}
	eng, err := core.LoadEngine(&buf)
	if err != nil {
		return nil, nil, fmt.Errorf("load engine: %w", err)
	}
	pairs := make([]pair, len(test.Samples))
	for i, s := range test.Samples {
		pairs[i] = pair{frame: s.Frame.Pix, window: s.Window}
	}
	return eng, pairs, nil
}

// checkDistribution reports why probs is not a valid posterior whose argmax
// is class, or "" when it is.
func checkDistribution(probs []float64, class int) string {
	if len(probs) == 0 {
		return "empty posterior"
	}
	sum, best := 0.0, 0
	for i, p := range probs {
		if p < 0 || p > 1 {
			return fmt.Sprintf("probability %d is %g", i, p)
		}
		sum += p
		if p > probs[best] {
			best = i
		}
	}
	if d := sum - 1; d > 1e-9 || d < -1e-9 {
		return fmt.Sprintf("posterior sums to %.12f", sum)
	}
	if class != best {
		return fmt.Sprintf("class %d is not the argmax %d", class, best)
	}
	return ""
}

// sameProbs reports whether two posteriors agree within tol.
func sameProbs(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if d := a[i] - b[i]; d > tol || d < -tol {
			return false
		}
	}
	return true
}
