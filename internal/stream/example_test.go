package stream_test

import (
	"fmt"
	"time"

	"darnet/internal/core"
	"darnet/internal/stream"
)

// distracted builds a fused two-class classification whose distracted
// evidence, 1 − P(normal), is p.
func distracted(p float64) *core.Classification {
	return &core.Classification{Class: 1, Probs: []float64{1 - p, p}}
}

// The alerter debounces the classification stream on evidence: the score
// must stay past a threshold for the dwell before the state flips, and a
// degraded (single-modality) classification counts for half.
func ExampleAlerter() {
	alerter, err := stream.NewAlerter(stream.AlertConfig{Dwell: 2 * time.Second})
	if err != nil {
		panic(err)
	}
	cnnOnly := distracted(0.9)
	cnnOnly.Mode = core.ModeCNNOnly
	session := []*core.Classification{
		distracted(0.1),
		cnnOnly,         // 0.9 discounted to 0.45: below the 0.6 enter threshold
		distracted(0.9), // qualifying evidence starts the dwell
		distracted(0.5), // mid-band: the dwell restarts
		distracted(0.9),
		distracted(0.8), // 2.5 s past the dwell start: raise
		distracted(0.2),
		distracted(0.1), // sustained normal evidence: clear
	}
	start := time.Unix(0, 0)
	for i, c := range session {
		now := start.Add(time.Duration(i) * 2500 * time.Millisecond)
		if ev := alerter.Observe(now, c); ev != stream.AlertNone {
			fmt.Printf("window %d -> alert %v\n", i, ev)
		}
	}
	// Output:
	// window 5 -> alert raised
	// window 7 -> alert cleared
}

// EvaluateAlerts replays a recorded session through the same alerter and
// scores it at the episode level.
func ExampleEvaluateAlerts() {
	// Ground truth: normal, then a 3-window texting episode, then normal.
	truth := []int{0, 0, 2, 2, 2, 0, 0, 0}
	// The classifier misses the first episode window and blips once later.
	evidence := []float64{0.1, 0.1, 0.2, 0.9, 0.9, 0.1, 0.9, 0.1}
	preds := make([]*core.Classification, len(evidence))
	for i, p := range evidence {
		preds[i] = distracted(p)
	}

	// 5 s windows and darnetd's 2 s dwell: an alert raises on the second
	// sustained window.
	report, err := stream.EvaluateAlerts(truth, preds, 5*time.Second, stream.AlertConfig{Dwell: 2 * time.Second})
	if err != nil {
		panic(err)
	}
	fmt.Printf("episodes: %d, detected: %d, false alerts: %d, mean delay: %.0f windows\n",
		report.Episodes, report.Detected, report.FalseAlerts, report.MeanDetectionDelay)
	// Output: episodes: 1, detected: 1, false alerts: 0, mean delay: 2 windows
}
