package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"darnet/internal/bayes"
	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/privacy"
	"darnet/internal/rnn"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

// servedEngine builds an engine at the served geometry — the paper-size
// frame CNN over 32×32 frames and 6 classes, two BiLSTM layers of 64 units
// per direction over 3 IMU classes — with untrained weights and a combiner
// fitted on random predictions. Its stages cost what a trained engine's do,
// without paying for training. It returns one aligned frame and window.
func servedEngine(tb testing.TB, seed int64) (*Engine, []float64, imu.Window) {
	tb.Helper()
	const w, h, classes, imuClasses = 32, 32, 6, 3
	rng := rand.New(rand.NewSource(seed))
	data := tinyData(rng, 24, w, h, classes, imuClasses)
	cnn, err := BuildFrameCNN(rng, w, h, classes, DefaultCNNConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cls, err := rnn.NewClassifier("imurnn", rng, rnn.Config{Input: imu.FeatureDim, Hidden: 64, Layers: 2, Classes: imuClasses})
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := imu.FitStats(data.Windows)
	if err != nil {
		tb.Fatal(err)
	}
	bn, err := bayes.NewCombiner(classes, classes, imuClasses)
	if err != nil {
		tb.Fatal(err)
	}
	cnnPred, rnnPred := make([]int, len(data.Labels)), make([]int, len(data.Labels))
	for i := range cnnPred {
		cnnPred[i], rnnPred[i] = rng.Intn(classes), rng.Intn(imuClasses)
	}
	if err := bn.Fit(data.Labels, [][]int{cnnPred, rnnPred}, 1); err != nil {
		tb.Fatal(err)
	}
	eng := &Engine{
		CNN: cnn, RNN: cls, IMUStats: stats, BNWithRNN: bn,
		Classes: classes, IMUClasses: imuClasses, ClassMap: intsToClassMap(data.ClassMap), ImgW: w, ImgH: h,
	}
	return eng, data.Frames.Row(0), data.Windows[0]
}

// serialClassify runs ClassifyCtx's stages one after another on the
// calling goroutine: the reference the overlapped call must equal.
func serialClassify(t *testing.T, eng *Engine, frame []float64, window imu.Window) *Classification {
	t.Helper()
	var cnnProbs, rnnProbs []float64
	var err error
	if len(frame) > 0 {
		if cnnProbs, err = eng.FrameProbs(frame); err != nil {
			t.Fatal(err)
		}
	}
	if len(window.Samples) > 0 {
		if rnnProbs, err = eng.WindowProbs(window); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Fuse(cnnProbs, rnnProbs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameClassification(t *testing.T, name string, got, want *Classification) {
	t.Helper()
	if got.Class != want.Class || got.Mode != want.Mode ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
		!sameBits(got.Probs, want.Probs) || !sameBits(got.CNNProbs, want.CNNProbs) || !sameBits(got.RNNProbs, want.RNNProbs) {
		t.Fatalf("%s: ClassifyCtx %+v, serial stages %+v", name, got, want)
	}
}

// TestClassifyOverlapMatchesSerial: ClassifyCtx runs the CNN on a goroutine
// of its own beside the RNN, and its result equals the serial FrameProbs,
// WindowProbs and Fuse bit for bit in every mode and on the distorted
// remote route.
func TestClassifyOverlapMatchesSerial(t *testing.T) {
	eng, frame, window := servedEngine(t, 1)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		frame  []float64
		window imu.Window
		mode   ClassifyMode
	}{
		{"fused", frame, window, ModeFused},
		{"cnn-only", frame, imu.Window{}, ModeCNNOnly},
		{"rnn-only", nil, window, ModeRNNOnly},
	} {
		got, err := eng.ClassifyCtx(ctx, tc.frame, tc.window)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Mode != tc.mode {
			t.Fatalf("%s: mode %v, want %v", tc.name, got.Mode, tc.mode)
		}
		sameClassification(t, tc.name, got, serialClassify(t, eng, tc.frame, tc.window))
	}

	// With the engine's own CNN as the DistortLow student, a distorted
	// request through answer runs the same arithmetic as the serial stages.
	router := privacy.NewRouter()
	router.Register(collect.DistortLow, eng.CNN)
	eng.SetDCNNRouter(router)
	resp := eng.answer(ctx, &wire.ClassifyRequest{
		FrameW: uint32(eng.ImgW), FrameH: uint32(eng.ImgH), Frame: frame, Distortion: uint8(collect.DistortLow),
		Steps: uint32(len(window.Samples)), FeatureDim: imu.FeatureDim, Window: window.Flatten(),
	})
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	want := serialClassify(t, eng, frame, window)
	if int(resp.Class) != want.Class || !sameBits(resp.Probs, want.Probs) {
		t.Fatalf("distorted answer class %d %v, serial stages class %d %v", resp.Class, resp.Probs, want.Class, want.Probs)
	}
}

// TestClassifyRejectsFrameBeforeRNN: a frame that fails the CNN stage's
// input checks returns its error before the RNN runs, counted once.
func TestClassifyRejectsFrameBeforeRNN(t *testing.T) {
	eng, frame, window := servedEngine(t, 2)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		frame []float64
		level collect.DistortionLevel
	}{
		{"wrong size", frame[:len(frame)-1], collect.DistortNone},
		{"no router", frame, collect.DistortLow},
	} {
		errs, rnnRuns := mClassifyErrors.Value(), hRNNForward.Count()
		if _, err := eng.classifyCtx(ctx, tc.frame, tc.level, window); err == nil {
			t.Fatalf("%s: classified", tc.name)
		}
		if d := mClassifyErrors.Value() - errs; d != 1 {
			t.Fatalf("%s: darnet_core_classify_errors_total moved by %d, want 1", tc.name, d)
		}
		if d := hRNNForward.Count() - rnnRuns; d != 0 {
			t.Fatalf("%s: darnet_core_rnn_forward_seconds observed %d times, want 0", tc.name, d)
		}
	}
}

// TestClassifyCNNErrorWins: when both stages fail after the join, the CNN's
// error is the one returned, as when the stages ran in turn.
func TestClassifyCNNErrorWins(t *testing.T) {
	eng, frame, window := servedEngine(t, 3)
	// A registered router without a DistortMedium student fails the CNN
	// stage after its checks; an RNN built for 12 features fails the RNN.
	eng.SetDCNNRouter(privacy.NewRouter())
	narrow, err := rnn.NewClassifier("narrow", rand.New(rand.NewSource(4)), rnn.Config{Input: imu.FeatureDim - 1, Hidden: 4, Layers: 1, Classes: eng.IMUClasses})
	if err != nil {
		t.Fatal(err)
	}
	eng.RNN = narrow
	_, cnnErr := eng.cnnForward(frame, collect.DistortMedium)
	if cnnErr == nil {
		t.Fatal("the DistortMedium stage ran without a student")
	}
	if _, err := eng.WindowProbs(window); err == nil {
		t.Fatal("a 12-feature RNN classified a 13-feature window")
	}
	if _, err := eng.classifyCtx(context.Background(), frame, collect.DistortMedium, window); err == nil || err.Error() != cnnErr.Error() {
		t.Fatalf("classify returned %v, want the CNN's %v", err, cnnErr)
	}
}

// TestClassifySpanOrder: a sampled call's stage spans keep the order cnn,
// rnn, bn although the CNN runs on another goroutine.
func TestClassifySpanOrder(t *testing.T) {
	eng, frame, window := servedEngine(t, 5)
	root := telemetry.NewTracer(1, 1).StartRoot("darnet_test_request")
	if _, err := eng.ClassifyCtx(telemetry.ContextWithSpan(context.Background(), root), frame, window); err != nil {
		t.Fatal(err)
	}
	root.End()
	cls := findSpan(root.Tree(), "darnet_stage_classify")
	if cls == nil {
		t.Fatalf("no darnet_stage_classify span:\n%s", telemetry.RenderTree(root.Tree()))
	}
	want := []string{"darnet_stage_cnn_forward", "darnet_stage_rnn_forward", "darnet_stage_bn_combine"}
	if len(cls.Children) != len(want) {
		t.Fatalf("classify has %d children, want %v:\n%s", len(cls.Children), want, telemetry.RenderTree(root.Tree()))
	}
	for i, c := range cls.Children {
		if c.Name != want[i] || c.DurationNanos <= 0 {
			t.Fatalf("child %d is %s lasting %dns, want %s:\n%s", i, c.Name, c.DurationNanos, want[i], telemetry.RenderTree(root.Tree()))
		}
	}
}

// TestClassifyLeavesNoGoroutine: the CNN goroutine ends with its call,
// whether the call succeeds or fails.
func TestClassifyLeavesNoGoroutine(t *testing.T) {
	eng, frame, window := servedEngine(t, 6)
	eng.SetDCNNRouter(privacy.NewRouter())
	ctx := context.Background()
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := eng.ClassifyCtx(ctx, frame, window); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.classifyCtx(ctx, frame, collect.DistortMedium, window); err == nil {
			t.Fatal("the DistortMedium stage ran without a student")
		}
	}
	// A finished goroutine may still be counted for a moment after the
	// join it signalled, so wait for the count to settle.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the calls, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWindowProbsAllocatesOnlyItsResult: the normalized window comes from a
// pool, so the returned slice is the call's one allocation.
func TestWindowProbsAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	eng, _, window := servedEngine(t, 7)
	if _, err := eng.WindowProbs(window); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.WindowProbs(window); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("WindowProbs allocates %v times per call, want 1", allocs)
	}
}
