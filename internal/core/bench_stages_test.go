package core

import (
	"context"
	"testing"
)

// BenchmarkClassifyStages is the classify ledger at the served geometry
// (see servedEngine): one sub-benchmark per stage — the CNN over a frame,
// the RNN over a window, the Bayesian-network fusion — and the whole
// ClassifyCtx. The CNN and the RNN overlap inside ClassifyCtx, so the whole
// is measured against the critical path, max(cnn, rnn) + fuse, reported as
// critical-ns/op beside the serial sum, serial-ns/op. Run it with
// `make bench-kernels`.
func BenchmarkClassifyStages(b *testing.B) {
	eng, frame, window := servedEngine(b, 1)
	cnnProbs, err := eng.FrameProbs(frame)
	if err != nil {
		b.Fatal(err)
	}
	rnnProbs, err := eng.WindowProbs(window)
	if err != nil {
		b.Fatal(err)
	}
	perOp := map[string]float64{}
	stage := func(name string, run func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			perOp[name] = float64(b.Elapsed()) / float64(b.N)
		})
	}
	stage("cnn", func() error { _, err := eng.FrameProbs(frame); return err })
	stage("rnn", func() error { _, err := eng.WindowProbs(window); return err })
	stage("fuse", func() error { _, err := eng.Fuse(cnnProbs, rnnProbs); return err })
	ctx := context.Background()
	b.Run("classify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ClassifyCtx(ctx, frame, window); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(max(perOp["cnn"], perOp["rnn"])+perOp["fuse"], "critical-ns/op")
		b.ReportMetric(perOp["cnn"]+perOp["rnn"]+perOp["fuse"], "serial-ns/op")
	})
}
