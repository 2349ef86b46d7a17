package core

import (
	"context"
	"math"
	"math/rand"
	"net"
	"testing"

	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/privacy"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

func TestRemoteClassifyOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(40))
	train := tinyData(rng, 45, 16, 16, 3, 3)
	cfg := DefaultTrainConfig()
	cfg.CNNEpochs = 3
	cfg.RNNEpochs = 1
	cfg.RNNHidden = 4
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 3
	eng, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- eng.ServeClassifyCtx(context.Background(), wire.NewConn(conn))
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)

	// Remote and local inference must agree exactly.
	for i := 0; i < 3; i++ {
		local, err := eng.Classify(train.Frames.Row(i), train.Windows[i])
		if err != nil {
			t.Fatal(err)
		}
		remote, err := RemoteClassify(conn, train.Frames.Row(i), 16, 16, 0, train.Windows[i])
		if err != nil {
			t.Fatal(err)
		}
		if remote.Class != local.Class {
			t.Fatalf("sample %d: remote class %d vs local %d", i, remote.Class, local.Class)
		}
		for k := range local.Probs {
			if math.Abs(remote.Probs[k]-local.Probs[k]) > 1e-12 {
				t.Fatalf("sample %d: posterior differs remotely", i)
			}
		}
	}

	// A malformed request gets an error response without killing the stream.
	bad := &wire.ClassifyRequest{FrameW: 3, FrameH: 3, Frame: make([]float64, 9),
		Steps: uint32(imu.WindowSize), FeatureDim: imu.FeatureDim,
		Window: make([]float64, imu.WindowSize*imu.FeatureDim)}
	if err := conn.Send(bad); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := msg.(*wire.ClassifyResponse)
	if !ok || resp.Error == "" {
		t.Fatalf("expected error response, got %+v", msg)
	}
	// The stream still works afterwards.
	if _, err := RemoteClassify(conn, train.Frames.Row(0), 16, 16, 0, train.Windows[0]); err != nil {
		t.Fatalf("stream broken after bad request: %v", err)
	}

	raw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWindowFromFeaturesRoundTrip holds windowFromFeatures to the inverse of
// Flatten at the window level (the per-sample identity is imu's
// TestSampleFromFeaturesRoundTrip) and checks its length errors.
func TestWindowFromFeaturesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	flat := make([]float64, 5*imu.FeatureDim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	back, err := windowFromFeatures(flat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != 5 {
		t.Fatalf("window has %d samples, want 5", len(back.Samples))
	}
	for i, v := range back.Flatten() {
		if v != flat[i] {
			t.Fatalf("value %d: %g vs %g", i, v, flat[i])
		}
	}
	if _, err := windowFromFeatures(make([]float64, 10), 5); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := windowFromFeatures(nil, 0); err == nil {
		t.Fatal("expected zero-steps error")
	}
}

func TestClassifyRequestValidate(t *testing.T) {
	good := &wire.ClassifyRequest{FrameW: 2, FrameH: 2, Frame: make([]float64, 4), Steps: 1, FeatureDim: 13, Window: make([]float64, 13)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &wire.ClassifyRequest{FrameW: 2, FrameH: 2, Frame: make([]float64, 3)}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected frame mismatch error")
	}
	bad2 := &wire.ClassifyRequest{FrameW: 1, FrameH: 1, Frame: make([]float64, 1), Steps: 2, FeatureDim: 13, Window: make([]float64, 13)}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected window mismatch error")
	}
}

func TestRemoteClassifyDistortedRoutesThroughDCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(50))
	train := tinyData(rng, 45, 16, 16, 3, 3)
	cfg := DefaultTrainConfig()
	cfg.CNNEpochs = 3
	cfg.RNNEpochs = 1
	cfg.RNNHidden = 4
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 3
	eng, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- eng.ServeClassifyCtx(context.Background(), wire.NewConn(conn))
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)

	// Without a router, distorted requests are rejected (but the stream
	// survives).
	if _, err := RemoteClassify(conn, train.Frames.Row(0), 16, 16, uint8(collect.DistortLow), train.Windows[0]); err == nil {
		t.Fatal("expected no-router error")
	}

	// Attach a router whose dCNN-L is simply the engine's own CNN (exactness
	// is not the point; routing is).
	router := privacy.NewRouter()
	router.Register(collect.DistortLow, eng.CNN)
	eng.SetDCNNRouter(router)

	res, err := RemoteClassify(conn, train.Frames.Row(0), 16, 16, uint8(collect.DistortLow), train.Windows[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range res.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distorted-path posterior sums to %g", sum)
	}

	raw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// findSpan returns the first node named name in the tree under n, or nil.
func findSpan(n *telemetry.TraceNode, name string) *telemetry.TraceNode {
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestClassifyDistortedFusesLikeClassify sends distorted requests through
// answer, the remote server's per-request body. A level with a registered
// dCNN runs ClassifyCtx's stages: with the engine's own CNN as that dCNN the
// posterior equals ClassifyCtx's bit for bit, the CNN and classify
// histograms move by one, and the stage spans hang under the request's
// root. A level with no registered model counts a classify error.
func TestClassifyDistortedFusesLikeClassify(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	eng, train := trainTinyEngine(t)
	router := privacy.NewRouter()
	router.Register(collect.DistortLow, eng.CNN)
	eng.SetDCNNRouter(router)
	frame, window := train.Frames.Row(1), train.Windows[1]
	request := func(level collect.DistortionLevel) *wire.ClassifyRequest {
		return &wire.ClassifyRequest{
			FrameW: uint32(eng.ImgW), FrameH: uint32(eng.ImgH), Frame: frame, Distortion: uint8(level),
			Steps: uint32(len(window.Samples)), FeatureDim: imu.FeatureDim, Window: window.Flatten(),
		}
	}
	want, err := eng.ClassifyCtx(context.Background(), frame, window)
	if err != nil {
		t.Fatal(err)
	}

	cnnFwd, classified, errs := hCNNForward.Count(), hClassify.Count(), mClassifyErrors.Value()
	root := telemetry.NewTracer(1, 1).StartRoot("darnet_classify_request")
	resp := eng.answer(telemetry.ContextWithSpan(context.Background(), root), request(collect.DistortLow))
	root.End()
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if int(resp.Class) != want.Class || !sameBits(resp.Probs, want.Probs) {
		t.Fatalf("distorted answer class %d %v, ClassifyCtx class %d %v", resp.Class, resp.Probs, want.Class, want.Probs)
	}
	if d := hCNNForward.Count() - cnnFwd; d != 1 {
		t.Fatalf("darnet_core_cnn_forward_seconds observed %d times, want 1", d)
	}
	if d := hClassify.Count() - classified; d != 1 {
		t.Fatalf("darnet_core_classify_seconds observed %d times, want 1", d)
	}
	if d := mClassifyErrors.Value() - errs; d != 0 {
		t.Fatalf("darnet_core_classify_errors_total moved by %d, want 0", d)
	}
	cls := findSpan(root.Tree(), "darnet_stage_classify")
	if cls == nil {
		t.Fatalf("no darnet_stage_classify span under the request root:\n%s", telemetry.RenderTree(root.Tree()))
	}
	for _, stage := range []string{"darnet_stage_cnn_forward", "darnet_stage_rnn_forward", "darnet_stage_bn_combine"} {
		if findSpan(cls, stage) == nil {
			t.Fatalf("no %s span under the request root:\n%s", stage, telemetry.RenderTree(root.Tree()))
		}
	}

	errs = mClassifyErrors.Value()
	if resp := eng.answer(context.Background(), request(collect.DistortMedium)); resp.Error == "" {
		t.Fatal("a level with no registered dCNN was answered")
	}
	if d := mClassifyErrors.Value() - errs; d != 1 {
		t.Fatalf("darnet_core_classify_errors_total moved by %d for an unregistered level, want 1", d)
	}
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
