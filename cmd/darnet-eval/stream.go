package main

// The stream experiment measures the streaming classification pipeline under
// deliberate saturation: a hot-loop agent (no wall-clock pacing) floods a
// loopback controller with IMU samples and camera frames far faster than the
// classify stage can drain them, and the report records what the robustness
// machinery did about it — sustained decision throughput, alert-latency
// percentiles, frames skipped, readings shed at the bounded queue, flushes
// deferred under zero credits — plus the bounded-memory evidence (max queue
// depth never above the cap). It is the overload counterpart of -exp chaos.

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"darnet"
	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/stream"
	"darnet/internal/synth"
	"darnet/internal/telemetry"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// Saturation parameters: a small queue saturates fast, a hot loop with
// several polls per flush keeps the offered rate far above classify
// capacity on any host.
const (
	streamRunFor        = 3 * time.Second
	streamQueueCap      = 64
	streamFrameSkipMax  = 4
	streamPollsPerFlush = 128
	streamPollStepMS    = 25 // simulated sensor clock step per poll
	streamAlertDwellMS  = 100
)

// satResult aggregates one saturating loopback run (see saturatingRun).
type satResult struct {
	elapsed      time.Duration
	generated    int64
	offered      int64
	processed    int64
	spillDropped int64
	deferred     int64
	stats        stream.Stats
}

// trainStreamEngine is the shared preamble of the stream and obs experiments:
// generate the dataset and train a small engine on it.
func trainStreamEngine(scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool) (*darnet.Engine, *darnet.Dataset, error) {
	cfg := darnet.DefaultDatasetConfig()
	cfg.Scale = scale
	ds, err := darnet.GenerateDataset(cfg)
	if err != nil {
		return nil, nil, err
	}
	tc := darnet.DefaultEngineTrainConfig()
	tc.Seed = seed
	tc.CNNEpochs = cnnEpochs
	tc.RNNEpochs = rnnEpochs
	start := time.Now()
	if !quiet {
		tc.Progress = func(stage string, epoch int, loss float64) {
			fmt.Printf("  [%s] epoch %d loss %.4f (%v)\n", stage, epoch, loss, time.Since(start).Round(time.Second))
		}
	}
	eng, err := darnet.TrainEngine(ds, tc)
	if err != nil {
		return nil, nil, err
	}
	return eng, ds, nil
}

// streamBench trains a small engine, saturates a streaming controller over
// loopback TCP, and writes the report to outPath: the generated / offered /
// processed / shed accounting that proves saturation with bounded memory
// (generated / processed >= 2, max depth <= queue cap), decision
// throughput, alert-latency percentiles, and the degradation counters
// (frames skipped, flushes deferred, watchdog restarts).
func streamBench(scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool, outPath string) error {
	eng, ds, err := trainStreamEngine(scale, seed, cnnEpochs, rnnEpochs, quiet)
	if err != nil {
		return err
	}
	res, err := saturatingRun(eng, ds, seed, streamRunFor, false)
	if err != nil {
		return err
	}
	s := res.stats

	secs := res.elapsed.Seconds()
	m := metricSet{}
	m.set("duration_ms", float64(res.elapsed.Milliseconds()), "ms")
	m.set("queue_cap", streamQueueCap, "count")
	m.set("generated_readings", float64(res.generated), "count")
	m.set("offered_readings", float64(res.offered), "count")
	m.set("shed_readings", float64(s.ShedReadings), "count")
	m.set("spill_dropped", float64(res.spillDropped), "count")
	m.set("processed_readings", float64(res.processed), "count")
	m.set("saturation_ratio", float64(res.generated)/float64(res.processed), "ratio")
	m.set("max_depth", float64(s.MaxDepth), "count")
	m.set("decisions", float64(s.Decisions), "count")
	m.set("decisions_per_sec", float64(s.Decisions)/secs, "1/s")
	m.set("frames", float64(s.Frames), "count")
	m.set("frames_skipped", float64(s.FramesSkipped), "count")
	m.set("restarts", float64(s.Restarts), "count")
	m.set("alerts_raised", float64(s.AlertsRaised), "count")
	m.set("alerts_cleared", float64(s.AlertsCleared), "count")
	m.set("deferred_flushes", float64(res.deferred), "count")
	for _, h := range telemetry.Default.Snapshot().Histograms {
		if h.Name == "darnet_stream_alert_latency_seconds" {
			m.set("alert_latency_p50_ms", h.P50*1000, "ms")
			m.set("alert_latency_p99_ms", h.P99*1000, "ms")
		}
	}
	return writeReport(outPath, "stream", seed, m)
}

// saturatingRun floods a loopback streaming controller with the hot-loop
// agent for runFor and returns the overload accounting. disableTracing turns
// off agent-side trace-context propagation — the -exp obs baseline arm; the
// stream experiment always runs with tracing on.
func saturatingRun(eng *darnet.Engine, ds *darnet.Dataset, seed int64, runFor time.Duration, disableTracing bool) (*satResult, error) {
	mux, err := stream.NewMux(stream.Config{
		QueueCap:     streamQueueCap,
		FrameSkipMax: streamFrameSkipMax,
		Alert: stream.AlertConfig{
			NormalClass: int(darnet.NormalDriving),
			Dwell:       streamAlertDwellMS * time.Millisecond,
		},
	}, stream.EngineTickerFactory(eng))
	if err != nil {
		return nil, err
	}
	defer mux.Shutdown()

	ctrl := collect.NewController(tsdb.New(), func() int64 { return time.Now().UnixMilli() })
	ctrl.SetStreamSink(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				//lint:ignore errdrop the benchmark closes the link mid-protocol at shutdown
				ctrl.ServeConn(wire.NewConn(conn))
			}()
		}
	}()

	// The agent streams a distracted-driving IMU signature plus camera frames
	// drawn from the dataset, with a manual clock advanced per poll so the
	// four IMU channels group into samples regardless of how fast the hot
	// loop spins.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	manual := collect.NewManualTime(0)
	rng := rand.New(rand.NewSource(seed))
	window := synth.GenerateWindow(rng, synth.Talking, synth.DefaultIMUGen())
	step := 0
	current := window.Samples[0]
	next := func() {
		step++
		if step%len(window.Samples) == 0 {
			window = synth.GenerateWindow(rng, synth.Talking, synth.DefaultIMUGen())
		}
		current = window.Samples[step%len(window.Samples)]
	}
	frameIdx := 0
	sensors := append(collect.IMUSensors(func() imu.Sample { return current }),
		collect.SensorFunc{SensorName: collect.FrameSensorName, ReadFunc: func() []float64 {
			frameIdx++
			return ds.Samples[frameIdx%ds.Len()].Frame.Pix
		}})
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: "stream", Modality: "imu+cam", PollPeriodMS: streamPollStepMS, AckTimeout: 5 * time.Second,
		DisableTracing: disableTracing,
	}, collect.NewDriftClock(manual.Now, 0), sensors, wire.NewConn(raw))
	if err != nil {
		return nil, err
	}
	if err := agent.Hello(); err != nil {
		return nil, err
	}

	// Hot loop: poll as fast as the link allows — the offered rate is bounded
	// only by loopback TCP, guaranteeing the classify queue saturates. Zero
	// credits turn flush ticks into heartbeats exactly as the runner would.
	var deferred int64
	runStart := time.Now()
	for time.Since(runStart) < runFor {
		for i := 0; i < streamPollsPerFlush; i++ {
			manual.Advance(streamPollStepMS)
			next()
			agent.Poll()
		}
		if agent.ShouldDefer() {
			deferred++
			if err := agent.Heartbeat(); err != nil {
				return nil, fmt.Errorf("stream heartbeat: %w", err)
			}
			continue
		}
		if err := agent.Flush(); err != nil {
			return nil, fmt.Errorf("stream flush: %w", err)
		}
	}
	elapsed := time.Since(runStart)
	mux.Shutdown()

	st, ok := ctrl.AgentStats("stream")
	if !ok {
		return nil, fmt.Errorf("stream agent never registered")
	}
	s := mux.Stats()
	offered := int64(st.Readings)
	generated := offered + agent.SpillDropped()
	processed := offered - s.ShedReadings
	if processed <= 0 {
		return nil, fmt.Errorf("stream run processed nothing (offered=%d shed=%d)", offered, s.ShedReadings)
	}
	if s.Decisions == 0 {
		return nil, fmt.Errorf("stream run produced no classifications")
	}
	return &satResult{
		elapsed:      elapsed,
		generated:    generated,
		offered:      offered,
		processed:    processed,
		spillDropped: agent.SpillDropped(),
		deferred:     deferred,
		stats:        s,
	}, nil
}
