package main

import (
	"context"
	"fmt"
	"slices"

	"darnet/internal/telemetry"
)

// benchSamples is how many held-out samples the latency probe pushes through
// the serving path (Engine.ClassifyCtx) — enough for stable p90 estimates
// and to guarantee at least one sampled trace at the tracer's 1-in-64 rate.
const benchSamples = 64

// benchStageNames are the per-stage latency histograms the benchmark
// reports.
var benchStageNames = []string{
	"darnet_core_classify_seconds",
	"darnet_core_cnn_forward_seconds",
	"darnet_core_rnn_forward_seconds",
	"darnet_core_bn_combine_seconds",
}

// bench trains and evaluates the engine like -exp table2, then runs the
// latency probe over the serving path and writes the report to outPath:
// Top-1 accuracy of the three architectures and per-stage inference latency
// from the telemetry histograms.
func bench(dataPath string, scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool, outPath string) error {
	eng, test, ev, err := trainAndEvaluate(dataPath, scale, seed, cnnEpochs, rnnEpochs, quiet)
	if err != nil {
		return err
	}

	// The latency probe exercises per-sample fused inference — the path a
	// deployed controller serves — rather than the batched evaluation above,
	// so the stage histograms reflect serving latency.
	n := min(benchSamples, test.Len())
	ctx := context.Background()
	for _, s := range test.Samples[:n] {
		if _, err := eng.ClassifyCtx(ctx, s.Frame.Pix, s.Window); err != nil {
			return fmt.Errorf("latency probe: %w", err)
		}
	}

	m := metricSet{}
	m.set("scale", scale, "share")
	m.set("samples", float64(n), "count")
	m.set("accuracy.cnn_rnn", ev.CNNRNN, "share")
	m.set("accuracy.cnn_svm", ev.CNNSVM, "share")
	m.set("accuracy.cnn", ev.CNN, "share")
	for _, h := range telemetry.Default.Snapshot().Histograms {
		if slices.Contains(benchStageNames, h.Name) {
			m.set(h.Name+".count", float64(h.Count), "count")
			m.set(h.Name+".mean_ms", h.Mean*1000, "ms")
			m.set(h.Name+".p50_ms", h.P50*1000, "ms")
			m.set(h.Name+".p90_ms", h.P90*1000, "ms")
			m.set(h.Name+".p99_ms", h.P99*1000, "ms")
		}
	}
	return writeReport(outPath, "bench", seed, m)
}
