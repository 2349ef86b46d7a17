package core

import (
	"math"
	"math/rand"
	"net"
	"testing"

	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/privacy"
	"darnet/internal/vision"
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
		done <- eng.ServeClassify(wire.NewConn(conn))
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

func TestWindowFromFeaturesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	samples := make([]imu.Sample, 5)
	for i := range samples {
		for j := 0; j < 3; j++ {
			samples[i].Accel[j] = rng.NormFloat64()
			samples[i].Gyro[j] = rng.NormFloat64()
			samples[i].Gravity[j] = rng.NormFloat64()
		}
		for j := 0; j < 4; j++ {
			samples[i].Rotation[j] = rng.NormFloat64()
		}
	}
	w := imu.Window{Samples: samples}
	back, err := windowFromFeatures(w.Flatten(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		a := samples[i].Features()
		b := back.Samples[i].Features()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("sample %d feature %d: %g vs %g", i, j, a[j], b[j])
			}
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
		done <- eng.ServeClassify(wire.NewConn(conn))
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

// TestClassifyDistortedFusesLikeClassify checks that a distorted remote
// request goes through the same RNN forward and Bayesian Network fusion as
// ClassifyCtx: the posterior is fuse(dCNN probs, RNN probs), the confidence
// is the posterior peak, and the classification is counted and timed.
func TestClassifyDistortedFusesLikeClassify(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	eng, train := trainTinyEngine(t)
	router := privacy.NewRouter()
	router.Register(collect.DistortLow, eng.CNN)
	eng.SetDCNNRouter(router)
	frame, window := train.Frames.Row(1), train.Windows[1]

	classified, bn, rnnFwd := mClassifications.Value(), hBNCombine.Count(), hRNNForward.Count()
	got, err := eng.classifyDistorted(frame, collect.DistortLow, window)
	if err != nil {
		t.Fatal(err)
	}
	if d := mClassifications.Value() - classified; d != 1 {
		t.Fatalf("darnet_core_classifications_total moved by %d, want 1", d)
	}
	if d := hBNCombine.Count() - bn; d != 1 {
		t.Fatalf("darnet_core_bn_combine_seconds observed %d times, want 1", d)
	}
	if d := hRNNForward.Count() - rnnFwd; d != 1 {
		t.Fatalf("darnet_core_rnn_forward_seconds observed %d times, want 1", d)
	}

	img := vision.MustNewImage(eng.ImgW, eng.ImgH)
	copy(img.Pix, frame)
	cnnProbs, err := router.Classify(&privacy.TaggedFrame{Level: collect.DistortLow, Image: img})
	if err != nil {
		t.Fatal(err)
	}
	rnnProbs, err := eng.RNN.PredictProbs(eng.IMUStats.Normalize(window))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.fuse(cnnProbs, rnnProbs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeFused || got.Class != want.Class {
		t.Fatalf("distorted classification = class %d mode %v, want class %d fused", got.Class, got.Mode, want.Class)
	}
	for i := range want.Probs {
		if got.Probs[i] != want.Probs[i] {
			t.Fatalf("posterior[%d] = %v, want fuse(dCNN, RNN) = %v", i, got.Probs[i], want.Probs[i])
		}
	}
	if got.Confidence != got.Probs[got.Class] || got.Confidence == 0 {
		t.Fatalf("confidence %v, want posterior peak %v", got.Confidence, got.Probs[got.Class])
	}
	if len(got.CNNProbs) != eng.Classes || len(got.RNNProbs) != eng.IMUClasses {
		t.Fatalf("parent distributions missing: cnn %v rnn %v", got.CNNProbs, got.RNNProbs)
	}
}
