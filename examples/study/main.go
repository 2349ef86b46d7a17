// Study: the paper's §5.1 data-collection protocol end to end — a scripted
// distraction session ("perform a scripted set of distractions for 15
// seconds, repeated") is streamed through the collection middleware, the
// collected windows are labelled from the script (the offline verification
// step), and the labelled windows train an IMU classifier that is evaluated
// on a second, held-out scripted session.
//
//	go run ./examples/study
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

const segmentMillis = 15_000 // the paper's 15-second distraction segments

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(99))

	// The scripted distraction set, repeated as in the paper's protocol.
	base, err := collect.NewSessionScript(
		collect.ScriptSegment{Label: synth.IMUNormal, DurationMillis: segmentMillis},
		collect.ScriptSegment{Label: synth.IMUTalk, DurationMillis: segmentMillis},
		collect.ScriptSegment{Label: synth.IMUNormal, DurationMillis: segmentMillis},
		collect.ScriptSegment{Label: synth.IMUText, DurationMillis: segmentMillis},
	)
	if err != nil {
		return err
	}
	script, err := base.Repeat(4)
	if err != nil {
		return err
	}
	fmt.Printf("script: %d segments, %d s total\n", len(script.Segments), script.TotalMillis()/1000)

	// Collect two sessions: one to train on, one to evaluate on.
	trainWindows, trainStart, err := collectSession(rng, script, 0.003)
	if err != nil {
		return err
	}
	testWindows, testStart, err := collectSession(rng, script, 0.005)
	if err != nil {
		return err
	}
	trainLabels, err := script.LabelWindows(trainStart, trainWindows)
	if err != nil {
		return err
	}
	testLabels, err := script.LabelWindows(testStart, testWindows)
	if err != nil {
		return err
	}
	fmt.Printf("collected and labelled %d train / %d test windows\n", len(trainWindows), len(testWindows))

	// Train the IMU sequence classifier on the labelled collection.
	stats, err := imu.FitStats(trainWindows)
	if err != nil {
		return err
	}
	seqs := make([]*tensor.Tensor, len(trainWindows))
	for i, w := range trainWindows {
		seqs[i] = stats.Normalize(w)
	}
	cls, err := rnn.NewClassifier("study", rng, rnn.Config{
		Input: imu.FeatureDim, Hidden: 24, Layers: 1, Classes: synth.NumIMUClasses,
	})
	if err != nil {
		return err
	}
	fmt.Println("training on the collected session...")
	if _, err := cls.Train(nn.NewAdam(0.005), rng, seqs, trainLabels, rnn.TrainConfig{
		Epochs: 12, BatchSize: 8, ClipNorm: 5,
	}); err != nil {
		return err
	}

	// Evaluate on the held-out session, per window and per episode.
	// The IMU model is this study's whole evidence, so its windows count as
	// fused classifications.
	hits := 0
	preds := make([]*core.Classification, len(testWindows))
	for i, w := range testWindows {
		probs, err := cls.PredictProbs(stats.Normalize(w))
		if err != nil {
			return err
		}
		preds[i] = &core.Classification{Class: bayes.ArgMax(probs), Probs: probs}
		if preds[i].Class == testLabels[i] {
			hits++
		}
	}
	fmt.Printf("held-out session accuracy: %.1f%% (%d/%d windows)\n",
		100*float64(hits)/float64(len(testWindows)), hits, len(testWindows))

	// Replay the windows through the alert state machine darnetd serves, at
	// the 5 s window period and darnetd's default 2 s dwell.
	period := time.Duration(imu.WindowSize) * time.Second / imu.SampleRateHz
	report, err := stream.EvaluateAlerts(testLabels, preds, period,
		stream.AlertConfig{NormalClass: synth.IMUNormal, Dwell: 2 * time.Second})
	if err != nil {
		return err
	}
	fmt.Printf("alerting: %d/%d distraction episodes detected (mean delay %.1f windows), %d false alerts\n",
		report.Detected, report.Episodes, report.MeanDetectionDelay, report.FalseAlerts)
	return nil
}

// collectSession streams one scripted session through an agent → controller
// pair over loopback TCP (simulated time) and returns the assembled windows
// plus the session start time for labelling.
func collectSession(rng *rand.Rand, script *collect.SessionScript, drift float64) ([]imu.Window, int64, error) {
	mt := collect.NewManualTime(1_000_000)
	start := mt.Now()
	db := tsdb.New()
	ctrl := collect.NewController(db, mt.Now)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
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
		return nil, 0, err
	}

	// The "driver" performs whatever the script says at the current moment;
	// the generator provides the matching IMU signature.
	gen := synth.DefaultIMUGen()
	gen.TransitionProb = 0
	var window imu.Window
	stepInWindow := 0
	currentLabel := -1
	sample := func() imu.Sample {
		label, ok := script.LabelAt(mt.Now() - start)
		if !ok {
			label = synth.IMUNormal
		}
		if label != currentLabel || stepInWindow >= len(window.Samples) {
			class := synth.NormalDriving
			switch label {
			case synth.IMUTalk:
				class = synth.Talking
			case synth.IMUText:
				class = synth.Texting
			}
			window = synth.GenerateWindow(rng, class, gen)
			stepInWindow = 0
			currentLabel = label
		}
		s := window.Samples[stepInWindow]
		stepInWindow++
		return s
	}
	clock := collect.NewDriftClock(mt.Now, drift)
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: "phone", Modality: "imu", PollPeriodMS: 250,
	}, clock, collect.IMUSensors(sample), wire.NewConn(conn))
	if err != nil {
		return nil, 0, err
	}
	if err := agent.Hello(); err != nil {
		return nil, 0, err
	}

	steps := int(script.TotalMillis() / (1000 / imu.SampleRateHz))
	for i := 0; i < steps; i++ {
		agent.Poll()
		mt.Advance(1000 / imu.SampleRateHz)
		if i%40 == 39 {
			if err := agent.Flush(); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := agent.Flush(); err != nil {
		return nil, 0, err
	}
	conn.Close()
	wg.Wait()

	windows, err := ctrl.AssembleIMUWindows("phone", 1)
	if err != nil {
		return nil, 0, err
	}
	return windows, start, nil
}
