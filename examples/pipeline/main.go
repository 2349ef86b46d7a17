// End-to-end pipeline: DarNet's collection middleware feeding its analytics
// engine. An IMU agent (with a drifting clock) streams a scripted distraction
// session to the centralized controller over loopback TCP; the controller
// aggregates into the time-series store, keeps the agent's clock
// synchronized, and aligns the channels; the aligned stream is segmented
// into windows and classified by the IMU sequence model.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"darnet/internal/bayes"
	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/nn"
	"darnet/internal/rnn"
	"darnet/internal/stream"
	"darnet/internal/synth"
	"darnet/internal/tensor"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(21))

	// 1. Train a compact IMU classifier to run behind the controller.
	fmt.Println("training IMU sequence classifier...")
	cls, stats, err := trainIMUModel(rng)
	if err != nil {
		return err
	}

	// 2. Script a driving session: 4 segments of 10 s each at 4 Hz.
	script := []synth.Class{synth.NormalDriving, synth.Texting, synth.NormalDriving, synth.Talking}
	session := scriptSession(rng, script, 10*imu.SampleRateHz)
	fmt.Printf("scripted session: %v (%d samples)\n", script, len(session))

	// 3. Stream the session through an agent to the controller over TCP,
	// with simulated time so the run is instant and deterministic.
	mt := collect.NewManualTime(1_000_000)
	db := tsdb.New()
	ctrl := collect.NewController(db, mt.Now)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := ctrl.ServeConn(wire.NewConn(conn)); err != nil {
			log.Printf("controller: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	clock := collect.NewDriftClock(mt.Now, 0.004) // 4 ms/s drift
	cursor := 0
	sensors := collect.IMUSensors(func() imu.Sample { return session[cursor] })
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: "phone", Modality: "imu", PollPeriodMS: 250, LatencyComp: 1,
	}, clock, sensors, wire.NewConn(conn))
	if err != nil {
		return err
	}
	if err := agent.Hello(); err != nil {
		return err
	}

	// A second agent emulates the dashcam, streaming a frame every second on
	// the reserved frame channel.
	camConnRaw, camErr := net.Dial("tcp", ln.Addr().String())
	if camErr != nil {
		return camErr
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn2.Close()
		if err := ctrl.ServeConn(wire.NewConn(conn2)); err != nil {
			log.Printf("controller(cam): %v", err)
		}
	}()
	camClock := collect.NewDriftClock(mt.Now, 0.001)
	driver := synth.NewDriverProfile(rng)
	camAgent, err := collect.NewAgent(collect.AgentConfig{
		ID: "dashcam", Modality: "camera", PollPeriodMS: 1000,
	}, camClock, []collect.Sensor{collect.FrameSensor(func() []float64 {
		segment := script[min(cursor/(10*imu.SampleRateHz), len(script)-1)]
		return synth.RenderScene(rng, 32, 32, segment, driver, synth.DefaultAmbiguity()).Pix
	})}, wire.NewConn(camConnRaw))
	if err != nil {
		return err
	}
	if err := camAgent.Hello(); err != nil {
		return err
	}

	for cursor = 0; cursor < len(session); cursor++ {
		agent.Poll()
		if cursor%imu.SampleRateHz == 0 { // 1 fps dashcam
			camAgent.Poll()
		}
		mt.Advance(250) // 4 Hz
		if cursor%40 == 39 {
			if err := agent.Flush(); err != nil {
				return err
			}
			if err := camAgent.Flush(); err != nil {
				return err
			}
		}
	}
	if err := agent.Flush(); err != nil {
		return err
	}
	if err := camAgent.Flush(); err != nil {
		return err
	}
	fmt.Printf("streamed %d IMU samples and %d frames; phone clock skew after sync: %d ms\n",
		len(session), ctrl.FrameCount("dashcam"), agent.ClockSkewMillis())
	conn.Close()
	camConnRaw.Close()
	wg.Wait()

	// 4. The controller's engine bridge aligns the stored series onto the
	// 4 Hz grid and reassembles the paper's 20-step windows.
	windows, err := ctrl.AssembleIMUWindows("phone", 1)
	if err != nil {
		return err
	}

	// 5. Classify each window, pairing it with the nearest dashcam frame
	// (the cross-modality alignment the fused classifier consumes), and feed
	// the stream, each window at its mid-sample time, through the alert state
	// machine darnetd serves, with darnetd's default 2 s dwell. The IMU model
	// is this example's whole evidence, so its windows count as fused.
	fmt.Printf("assembled %d windows; classifying:\n", len(windows))
	names := []string{"normal", "talking", "texting"}
	alerter, err := stream.NewAlerter(stream.AlertConfig{NormalClass: synth.IMUNormal, Dwell: 2 * time.Second})
	if err != nil {
		return err
	}
	for i, w := range windows {
		probs, err := cls.PredictProbs(stats.Normalize(w))
		if err != nil {
			return err
		}
		pred := bayes.ArgMax(probs)
		mid := w.Samples[len(w.Samples)/2].TimestampMillis
		frame, err := ctrl.FrameNear("dashcam", mid, 0)
		if err != nil {
			return err
		}
		event := alerter.Observe(time.UnixMilli(mid), &core.Classification{Class: pred, Probs: probs})
		note := ""
		switch event {
		case stream.AlertRaised:
			note = "  << DISTRACTION ALERT RAISED"
		case stream.AlertCleared:
			note = "  << alert cleared"
		}
		start := i * imu.WindowSize
		segment := script[min(start/(10*imu.SampleRateHz), len(script)-1)]
		fmt.Printf("  t=%3d..%3ds  predicted %-8s (scripted: %v; paired frame @%d ms, %d px)%s\n",
			start/imu.SampleRateHz, (start+imu.WindowSize)/imu.SampleRateHz,
			names[pred], segment, frame.TimestampMillis, len(frame.Pix), note)
	}
	return nil
}

// trainIMUModel trains a small BiLSTM on synthetic windows.
func trainIMUModel(rng *rand.Rand) (*rnn.Classifier, *imu.Stats, error) {
	cfg := synth.DefaultConfig()
	cfg.Scale = 0.01
	ds, err := synth.GenerateTable1(cfg)
	if err != nil {
		return nil, nil, err
	}
	stats, err := imu.FitStats(ds.IMUWindows())
	if err != nil {
		return nil, nil, err
	}
	seqs := make([]*tensor.Tensor, ds.Len())
	for i, w := range ds.IMUWindows() {
		seqs[i] = stats.Normalize(w)
	}
	cls, err := rnn.NewClassifier("imu", rng, rnn.Config{
		Input: imu.FeatureDim, Hidden: 24, Layers: 1, Classes: synth.NumIMUClasses,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := cls.Train(nn.NewAdam(0.005), rng, seqs, ds.IMULabels(), rnn.TrainConfig{
		Epochs: 6, BatchSize: 16, ClipNorm: 5,
	}); err != nil {
		return nil, nil, err
	}
	return cls, stats, nil
}

// scriptSession concatenates per-class IMU segments of segLen steps each.
func scriptSession(rng *rand.Rand, script []synth.Class, segLen int) []imu.Sample {
	var out []imu.Sample
	gen := synth.DefaultIMUGen()
	gen.TransitionProb = 0 // segments are pure; transitions come from the script itself
	for _, c := range script {
		var seg []imu.Sample
		for len(seg) < segLen {
			seg = append(seg, synth.GenerateWindow(rng, c, gen).Samples...)
		}
		out = append(out, seg[:segLen]...)
	}
	return out
}
