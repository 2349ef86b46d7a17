package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/wire"
)

// TestServeEngine drives the -engine server on an ephemeral listener. An
// undistorted request is answered with ClassifyCtx's posterior bit for bit;
// a DistortLow request gets an error response, because darnetd attaches no
// dCNN router, and the same connection then answers another request; closing
// stop returns with every goroutine reaped.
func TestServeEngine(t *testing.T) {
	f, err := os.Open(tinyEngineSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.LoadEngine(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	frame := make([]float64, eng.ImgW*eng.ImgH)
	for i := range frame {
		frame[i] = rng.Float64()
	}
	window := imu.Window{Samples: make([]imu.Sample, imu.WindowSize)}
	for s := range window.Samples {
		row := make([]float64, imu.FeatureDim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		window.Samples[s] = imu.SampleFromFeatures(0, row)
	}
	want, err := eng.ClassifyCtx(context.Background(), frame, window)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	ln := listenLoopback(t)
	stop := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveEngine(eng, ln, nil, stop, io.Discard)
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := wire.NewConn(raw)

	check := func(what string) {
		t.Helper()
		got, err := core.RemoteClassify(conn, frame, eng.ImgW, eng.ImgH, uint8(collect.DistortNone), window)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got.Class != want.Class || len(got.Probs) != len(want.Probs) {
			t.Fatalf("%s: class %d %v, ClassifyCtx class %d %v", what, got.Class, got.Probs, want.Class, want.Probs)
		}
		for i := range want.Probs {
			if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
				t.Fatalf("%s: posterior[%d] = %v, ClassifyCtx %v", what, i, got.Probs[i], want.Probs[i])
			}
		}
	}
	check("undistorted request")
	if _, err := core.RemoteClassify(conn, frame, eng.ImgW, eng.ImgH, uint8(collect.DistortLow), window); err == nil {
		t.Fatal("a DistortLow request was answered without a dCNN router")
	}
	check("request after the distorted one")

	close(stop)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveEngine did not return after stop with a connected client")
	}
	if !waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

func TestRunEngineServerRejectsBadSnapshot(t *testing.T) {
	if err := runEngineServer("127.0.0.1:0", "", filepath.Join(t.TempDir(), "missing.engine")); err == nil {
		t.Fatal("missing snapshot accepted")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.engine")
	if err := os.WriteFile(garbage, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runEngineServer("127.0.0.1:0", "", garbage); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}
