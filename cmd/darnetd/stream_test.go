package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/synth"
	"darnet/internal/telemetry"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

func TestStreamOptionsValidate(t *testing.T) {
	good := streamOptions{queueCap: 64, skipMax: 4, dwell: 2 * time.Second}
	if err := good.validate(); err != nil {
		t.Fatalf("default-shaped options rejected: %v", err)
	}
	// Streaming disabled (no engine path) still validates the knobs: a typo'd
	// -stream-queue=0 must fail fast even before anyone passes -stream-engine.
	cases := []struct {
		name string
		mut  func(*streamOptions)
	}{
		{"zero queue", func(o *streamOptions) { o.queueCap = 0 }},
		{"negative queue", func(o *streamOptions) { o.queueCap = -8 }},
		{"zero frame skip", func(o *streamOptions) { o.skipMax = 0 }},
		{"negative frame skip", func(o *streamOptions) { o.skipMax = -1 }},
		{"zero dwell", func(o *streamOptions) { o.dwell = 0 }},
		{"negative dwell", func(o *streamOptions) { o.dwell = -time.Second }},
	}
	for _, tc := range cases {
		o := good
		tc.mut(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, o)
		}
	}
}

func TestSetupStreamingDisabledAndErrors(t *testing.T) {
	ctrl := collect.NewController(tsdb.New(), wallMillis)
	base := streamOptions{queueCap: 8, skipMax: 2, dwell: 50 * time.Millisecond}

	if mux, err := setupStreaming(ctrl, base, io.Discard); err != nil || mux != nil {
		t.Fatalf("no engine path: got mux=%v err=%v, want nil/nil", mux, err)
	}

	missing := base
	missing.enginePath = filepath.Join(t.TempDir(), "nope.engine")
	if _, err := setupStreaming(ctrl, missing, io.Discard); err == nil {
		t.Fatal("missing snapshot accepted")
	}

	garbagePath := filepath.Join(t.TempDir(), "garbage.engine")
	if err := os.WriteFile(garbagePath, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := base
	garbage.enginePath = garbagePath
	if _, err := setupStreaming(ctrl, garbage, io.Discard); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// tinyEngineSnapshot trains a minimal engine and saves it where the
// -stream-engine flag would point.
func tinyEngineSnapshot(t *testing.T) string {
	t.Helper()
	dsCfg := synth.DefaultConfig()
	dsCfg.Scale = 0.01
	ds, err := synth.GenerateTable1(dsCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.CNNEpochs = 1
	cfg.RNNHidden = 4
	cfg.RNNLayers = 1
	cfg.RNNEpochs = 1
	cfg.SVMEpochs = 2
	cfg.BatchSize = 8
	eng, err := core.Train(ds.CoreData(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.engine")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(f, cfg.CNN, cfg.RNNHidden, cfg.RNNLayers); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamingControllerIntegration boots a controller with -stream-engine
// wiring (snapshot → mux → sink → health source) and drives one agent over
// TCP: the hello ack must grant admission credits, batches must keep flowing,
// and /healthz must reflect the mux verdict.
func TestStreamingControllerIntegration(t *testing.T) {
	const queueCap = 8
	sOpts := streamOptions{
		enginePath: tinyEngineSnapshot(t),
		queueCap:   queueCap,
		skipMax:    2,
		dwell:      50 * time.Millisecond,
	}
	if err := sOpts.validate(); err != nil {
		t.Fatal(err)
	}

	ln := listenLoopback(t)
	opsLn := listenLoopback(t)
	db := tsdb.New()
	ctrl := collect.NewController(db, wallMillis)
	mux, err := setupStreaming(ctrl, sOpts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if mux == nil {
		t.Fatal("setupStreaming returned no mux for a valid snapshot")
	}
	defer func() {
		telemetry.SetHealthSource(nil)
		mux.Shutdown()
	}()

	stop := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveController(ctrl, db, ln, opsLn, nil, stop, io.Discard)
	}()

	c := dialObsClient(t, ln.Addr().String(), "stream-1")
	if c.credits != queueCap {
		t.Fatalf("hello ack credits = %d, want %d", c.credits, queueCap)
	}

	// One pre-fused IMU reading plus one frame per batch: both assembler fast
	// paths feed the classify queue through the controller's sink offer. The
	// client holds each batch back while the grant is short of it, as
	// collect.Runner does under a zero grant, so the queue never sheds the
	// IMU samples the window needs.
	frame := make([]float64, synth.DefaultConfig().ImgW*synth.DefaultConfig().ImgH)
	// At least imu.WindowSize pre-fused samples, so the engine completes an
	// IMU window and the frame ticks can fuse into real decisions.
	for i := 0; i < imu.WindowSize+5; i++ {
		ack := c.sendBatch([]wire.Reading{
			{TimestampMillis: int64(1000 + 25*i), Sensor: "imu", Values: make([]float64, imu.FeatureDim)},
			{TimestampMillis: int64(1000 + 25*i), Sensor: collect.FrameSensorName, Values: frame},
		}, telemetry.SpanContext{})
		if _, ok := wire.DecodeCredits(ack.Credits); !ok {
			t.Fatalf("batch %d ack carries no admission grant", i)
		}
	}

	if !waitUntil(5*time.Second, func() bool { return mux.Stats().Decisions > 0 }) {
		t.Fatalf("streaming mux produced no decisions: %+v", mux.Stats())
	}

	// The last batches may leave the queue full (503 overloaded); once it
	// drains the mux health source must report ok.
	base := "http://" + opsLn.Addr().String()
	var code int
	var body string
	if !waitUntil(5*time.Second, func() bool {
		code, body = httpGet(t, base+"/healthz")
		return code == http.StatusOK
	}) {
		t.Fatalf("/healthz = %d %q, want 200 from the mux health source", code, body)
	}

	close(stop)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveController did not return after stop")
	}
}
