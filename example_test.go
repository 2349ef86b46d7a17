package darnet_test

import (
	"fmt"
	"math/rand"
	"time"

	"darnet"
)

// ClassNames enumerates the paper's six driver behaviour classes.
func ExampleClassNames() {
	for i, name := range darnet.ClassNames() {
		fmt.Printf("%d %s\n", i+1, name)
	}
	// Output:
	// 1 Normal Driving
	// 2 Talking
	// 3 Texting
	// 4 Eating/Drinking
	// 5 Hair and Makeup
	// 6 Reaching
}

// The alerter debounces the per-window classification stream into the
// paper's real-time driver alerts. It scores each window's distracted
// evidence, 1 − P(normal driving). The score must stay at or above 0.6 for
// the dwell to raise, and at or below 0.4 as long to clear.
func ExampleAlerter() {
	alerter, err := darnet.NewAlerter(darnet.AlertConfig{
		NormalClass: int(darnet.NormalDriving),
		Dwell:       2 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	window := func(c darnet.Class, p float64) *darnet.Classification {
		probs := make([]float64, darnet.NumClasses)
		probs[darnet.NormalDriving] = 1 - p
		probs[c] += p
		return &darnet.Classification{Class: int(c), Probs: probs}
	}
	session := []*darnet.Classification{
		window(darnet.NormalDriving, 0.1),
		window(darnet.Texting, 0.9), // one window: the dwell starts
		window(darnet.Texting, 0.8), // 5 s later, past the 2 s dwell: raise
		window(darnet.NormalDriving, 0.2),
		window(darnet.NormalDriving, 0.1), // sustained: clear
	}
	start := time.Unix(0, 0)
	for i, c := range session {
		now := start.Add(time.Duration(i) * 5 * time.Second) // 5 s IMU windows
		if ev := alerter.Observe(now, c); ev != darnet.AlertNone {
			fmt.Printf("%v -> alert %v\n", darnet.Class(c.Class), ev)
		}
	}
	// Output:
	// Texting -> alert raised
	// Normal Driving -> alert cleared
}

// Example_quickstart generates a small synthetic dataset, trains the
// analytics engine (frame CNN + IMU BiLSTM + SVM + Bayesian Network
// combiner) for one epoch per model, and classifies a held-out multi-modal
// observation. It prints only what training cannot change: the split, the
// observation's true behaviour, and the shape of the fused posterior.
func Example_quickstart() {
	cfg := darnet.DefaultDatasetConfig()
	cfg.Scale = 0.005 // 0.5% of the paper's frame counts
	ds, err := darnet.GenerateDataset(cfg)
	if err != nil {
		panic(err)
	}
	train, test, err := ds.Split(rand.New(rand.NewSource(1)), 0.2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dataset: %d train / %d test samples across %d classes\n",
		train.Len(), test.Len(), darnet.NumClasses)

	tc := darnet.DefaultEngineTrainConfig()
	tc.CNNEpochs = 1
	tc.RNNEpochs = 1
	eng, err := darnet.TrainEngine(train, tc)
	if err != nil {
		panic(err)
	}

	sample := test.Samples[0]
	result, err := eng.Classify(sample.Frame.Pix, sample.Window)
	if err != nil {
		panic(err)
	}
	sum := 0.0
	for _, p := range result.Probs {
		sum += p
	}
	fmt.Println("true behaviour:", sample.Class)
	fmt.Printf("fused posterior: %d classes, sum %.3f\n", len(result.Probs), sum)
	// Output:
	// dataset: 228 train / 57 test samples across 6 classes
	// true behaviour: Eating/Drinking
	// fused posterior: 6 classes, sum 1.000
}
