package main

import (
	"context"
	"fmt"
	"time"

	"darnet/internal/core"
)

// classify workload sizing. The closed loop makes a fixed number of calls,
// classifyRate per nominal second, so a faster engine finishes sooner
// instead of doing more work.
const (
	setupReps      = 3   // set-up repetitions; setup_s is their median
	classifyRate   = 200 // calls per nominal second (the seed does ~200/s)
	classifyWarmup = 40  // untimed calls before the timed phase
	allocCalls     = 32  // single calls per allocation count
	partsCalls     = 400 // interleaved part/whole calls of the traced run
	segments       = 10  // throughput segments of the timed loop
)

// runClassify runs one caller in a closed loop on Engine.ClassifyCtx,
// cycling the held-out pairs. One operation is one call.
func runClassify(cfg *runConfig) (*outcome, error) {
	out := &outcome{}
	var eng *core.Engine
	var pairs []pair
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		e, p, err := buildEngine(cfg.seed)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		eng, pairs = e, p
	}
	settle()

	ops := int(classifyRate * cfg.seconds)
	ctx := context.Background()
	check := func(cls *core.Classification, err error) {
		out.attempted++
		if err != nil {
			out.failed++
			logf("classify: %v", err)
			return
		}
		if why := checkDistribution(cls.Probs, cls.Class); why != "" {
			out.failed++
			logf("classify: %s", why)
		}
	}
	for i := 0; i < classifyWarmup; i++ {
		p := pairs[i%len(pairs)]
		check(eng.ClassifyCtx(ctx, p.frame, p.window))
	}

	// loop is the timed closed loop; rec, when non-nil and on, records one
	// span per call. Throughput is the median over segments of equal call
	// counts, so a burst of host noise moves one segment, not the result.
	loop := func(n int, rec *recorder) (lat latencies, tput float64, heap []float64) {
		lat.ms = make([]float64, 0, n)
		hs := startHeapSampler()
		var segs []float64
		seg := max(1, n/segments)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			s := time.Now()
			cls, err := eng.ClassifyCtx(ctx, p.frame, p.window)
			e := time.Now()
			lat.add(e.Sub(s))
			rec.span("core.classify", uint64(i), 0, s, e)
			check(cls, err)
			if (i+1)%seg == 0 {
				segs = append(segs, float64(seg)/e.Sub(t0).Seconds())
				t0 = e
			}
		}
		return lat, median(segs), hs.finish()
	}

	if !cfg.trace {
		out.lat, out.throughput, out.heapPeaks = loop(ops, nil)
	} else {
		out.layers = make(map[string]float64)
		// Untraced and traced halves of the same length give the tracing
		// overhead; the traced half also gives the process-wide counters.
		_, base, _ := loop(ops/2, nil)
		rec := newRecorder()
		rec.on.Store(true)
		r0 := readRuntime()
		_, traced, _ := loop(ops/2, rec)
		runtimeLayers(out.layers, r0, readRuntime(), ops/2)
		out.layers["trace.overhead_share"] = 1 - traced/base
		if err := classifyParts(eng, pairs, rec, out); err != nil {
			return nil, err
		}
		if err := rec.write(cfg); err != nil {
			return nil, err
		}
	}
	verifyClassify(eng, pairs, out)
	return out, nil
}

// classifyParts times the three stages of a classification beside the whole
// call on the same pairs, interleaved so host drift hits parts and whole
// alike, and counts each stage's allocations.
func classifyParts(eng *core.Engine, pairs []pair, rec *recorder, out *outcome) error {
	for i := 0; i < partsCalls; i++ {
		p := pairs[i%len(pairs)]
		op := uint64(1<<32 | i)
		t0 := time.Now()
		cnn, err := eng.FrameProbs(p.frame)
		if err != nil {
			return err
		}
		t1 := time.Now()
		rnn, err := eng.RNN.PredictProbs(eng.IMUStats.Normalize(p.window))
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := eng.Fuse(cnn, rnn); err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := eng.ClassifyCtx(context.Background(), p.frame, p.window); err != nil {
			return err
		}
		t4 := time.Now()
		root := rec.span("core.parts", op, 0, t0, t3)
		rec.span("nn.cnn_forward", op, root, t0, t1)
		rec.span("rnn.window_forward", op, root, t1, t2)
		rec.span("bayes.fuse", op, root, t2, t3)
		rec.span("core.classify_whole", op, 0, t3, t4)
	}
	l := out.layers
	l["nn.cnn_forward_ms"] = rec.mean("nn.cnn_forward", time.Millisecond)
	l["rnn.window_forward_ms"] = rec.mean("rnn.window_forward", time.Millisecond)
	l["bayes.fuse_us"] = rec.mean("bayes.fuse", time.Microsecond)
	l["core.classify_ms"] = rec.mean("core.classify_whole", time.Millisecond)
	l["core.parts_ms"] = rec.mean("core.parts", time.Millisecond)
	l["core.unexplained_share"] = 1 - share(l["core.parts_ms"], l["core.classify_ms"])
	logf("classify: parts %.3f ms of a %.3f ms call (cnn %.3f ms, rnn %.3f ms, fuse %.1f us); unexplained share %.3f of that base",
		l["core.parts_ms"], l["core.classify_ms"], l["nn.cnn_forward_ms"], l["rnn.window_forward_ms"], l["bayes.fuse_us"], l["core.unexplained_share"])

	p := pairs[0]
	var ferr, rerr error
	allocs, bytes := allocsPerCall(allocCalls, func() { _, ferr = eng.FrameProbs(p.frame) })
	l["nn.cnn_allocs_per_call"] = allocs
	l["nn.cnn_alloc_kb_per_call"] = bytes / 1024
	l["rnn.window_allocs_per_call"], _ = allocsPerCall(allocCalls, func() {
		_, rerr = eng.RNN.PredictProbs(eng.IMUStats.Normalize(p.window))
	})
	if ferr != nil || rerr != nil {
		return fmt.Errorf("allocation count: cnn %v, rnn %v", ferr, rerr)
	}
	return nil
}

// verifyClassify is the untimed correctness pass: for every held-out pair,
// ClassifyCtx must return a valid posterior whose class is its argmax, and
// fusing the separately computed modalities must reproduce it.
func verifyClassify(eng *core.Engine, pairs []pair, out *outcome) {
	for i, p := range pairs {
		out.attempted++
		cls, err := eng.ClassifyCtx(context.Background(), p.frame, p.window)
		if err != nil {
			out.failed++
			logf("verify pair %d: %v", i, err)
			continue
		}
		if why := checkDistribution(cls.Probs, cls.Class); why != "" {
			out.failed++
			logf("verify pair %d: %s", i, why)
			continue
		}
		cnn, err := eng.FrameProbs(p.frame)
		if err != nil {
			out.failed++
			logf("verify pair %d: %v", i, err)
			continue
		}
		rnn, err := eng.RNN.PredictProbs(eng.IMUStats.Normalize(p.window))
		if err != nil {
			out.failed++
			logf("verify pair %d: %v", i, err)
			continue
		}
		fused, err := eng.Fuse(cnn, rnn)
		if err != nil || fused.Class != cls.Class || !sameProbs(fused.Probs, cls.Probs, 1e-9) {
			out.failed++
			logf("verify pair %d: Fuse(FrameProbs, RNN) does not reproduce ClassifyCtx (err %v)", i, err)
		}
	}
}
