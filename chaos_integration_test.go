package darnet

// Chaos integration test: the full agent → controller → engine pipeline under
// injected transport faults. A collection agent streams over loopback TCP
// through a fault.Transport that hard-partitions the first two connections on
// a fixed write schedule and duplicates frames on the third; the runner must
// survive every partition via backoff reconnect, the controller must store
// zero duplicate readings despite replayed and duplicated batches, and the
// engine must keep classifying — degraded to CNN-only — while the IMU stream
// is down, with the recovery counters observing each event.

import (
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/fault"
	"darnet/internal/imu"
	"darnet/internal/stream"
	"darnet/internal/telemetry"
	"darnet/internal/tensor"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// The acceptance counters live inside the packages under test; the registry
// hands back the same instance for a given name, so the test reads them
// through their registered names.
var (
	cReconnects = telemetry.NewCounter("darnet_collect_reconnects_total", "agent reconnections completed after a transport failure")
	cDeduped    = telemetry.NewCounter("darnet_collect_batches_deduped_total", "replayed batches dropped by sequence-number dedupe (at-least-once delivery)")
	cDegraded   = telemetry.NewCounter("darnet_core_degraded_classify_total", "classifications served in degraded single-modality mode because a modality was absent")
)

// chaosTinyData builds a minimal learnable multi-modal dataset (bright block
// per class in the frames, accelerometer offset per class in the windows).
func chaosTinyData(rng *rand.Rand, n, w, h, classes int) *core.Data {
	frames := tensor.New(n, w*h)
	labels := make([]int, n)
	windows := make([]imu.Window, n)
	classMap := make([]int, classes)
	for c := range classMap {
		classMap[c] = c
	}
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		row := frames.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 0.1
		}
		x0 := (c * w) / classes
		for y := 0; y < h; y++ {
			for dx := 0; dx < 3 && x0+dx < w; dx++ {
				row[y*w+x0+dx] = 0.9
			}
		}
		samples := make([]imu.Sample, imu.WindowSize)
		for ts := range samples {
			samples[ts].TimestampMillis = int64(ts * 250)
			samples[ts].Accel[0] = float64(c)*3 + rng.NormFloat64()*0.2
			samples[ts].Gravity[1] = 9.8
			samples[ts].Rotation[3] = 1
		}
		windows[i] = imu.Window{Samples: samples}
	}
	return &core.Data{
		Frames: frames, Windows: windows, Labels: labels, IMULabels: labels,
		ImgW: w, ImgH: h, Classes: classes, IMUClasses: classes, ClassMap: classMap,
	}
}

func TestChaosPipelineSurvivesPartitionsWithoutDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test skipped in -short mode")
	}
	reconBefore := cReconnects.Value()
	dedupBefore := cDeduped.Value()
	degradedBefore := cDegraded.Value()

	// --- Controller over loopback TCP --------------------------------------
	db := tsdb.New()
	ctrl := collect.NewController(db, func() int64 { return time.Now().UnixMilli() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
				// Chaos sessions die by design (partitions, duplicated
				// handshakes); the assertions below run on the stored data.
				//lint:ignore errdrop chaos sessions end in injected faults
				ctrl.ServeConn(wire.NewConn(conn))
			}()
		}
	}()

	// --- Dialer with a per-connection fault schedule ------------------------
	// Connections 1 and 2 hard-partition after a fixed number of frames; the
	// later ones duplicate frames, turning delivered batches into replays the
	// controller must dedupe.
	var dials atomic.Int64
	dialer := func() (*wire.Conn, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		n := dials.Add(1)
		cfg := fault.Config{Seed: 100 + n}
		if n <= 2 {
			cfg.PartitionAfterWrites = []int{6}
		} else {
			cfg.DupRate = 0.4
		}
		return wire.NewConn(fault.NewTransport(raw, cfg)), nil
	}

	// --- Agent + fault-tolerant runner --------------------------------------
	conn, err := dialer()
	if err != nil {
		t.Fatal(err)
	}
	clock := collect.NewDriftClock(func() int64 { return time.Now().UnixMilli() }, 0)
	var tick int64
	sensors := []collect.Sensor{collect.SensorFunc{SensorName: "s", ReadFunc: func() []float64 {
		tick++
		return []float64{float64(tick)}
	}}}
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: "chaos", Modality: "imu", PollPeriodMS: 5,
		AckTimeout: 500 * time.Millisecond, MaxSpill: 10_000,
	}, clock, sensors, conn)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := collect.StartRunnerConfig(agent, collect.RunnerConfig{
		FlushEvery:  15 * time.Millisecond,
		Dialer:      dialer,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  30 * time.Millisecond,
		MaxAttempts: -1, // chaos keeps knocking connections over; never give up
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Run until both scheduled partitions have been survived and data has
	// flowed on a post-partition session.
	deadline := time.After(30 * time.Second)
	for runner.Reconnects() < 2 {
		select {
		case <-deadline:
			t.Fatalf("only %d reconnects before deadline (err=%v)", runner.Reconnects(), runner.Err())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	series := collect.SeriesName("chaos", "s") + "[0]"
	highWater := db.Len(series)
	deadline = time.After(30 * time.Second)
	for db.Len(series) <= highWater {
		select {
		case <-deadline:
			t.Fatal("no new readings stored after the second reconnect")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := runner.Shutdown(); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}

	if got := runner.Reconnects(); got < 2 {
		t.Fatalf("survived %d partitions, want >= 2", got)
	}
	if got := cReconnects.Value() - reconBefore; got < 2 {
		t.Fatalf("darnet_collect_reconnects_total moved by %d, want >= 2", got)
	}

	// --- Explicit replay: a stored batch retransmitted after reconnect ------
	st, ok := ctrl.AgentStats("chaos")
	if !ok {
		t.Fatal("agent unknown to controller after the run")
	}
	if st.LastSeq == 0 {
		t.Fatal("no sequenced batches stored during the run")
	}
	rowsBefore := db.Len(series)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	replay := wire.NewConn(raw)
	if err := replay.Send(&wire.Hello{AgentID: "chaos", Modality: "imu", PeriodMillis: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := replay.Send(&wire.SampleBatch{AgentID: "chaos", Seq: st.LastSeq, Readings: []wire.Reading{
		{TimestampMillis: 1, Sensor: "s", Values: []float64{-1}},
	}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := replay.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Ack); !ok {
		t.Fatalf("replay answered with %T, want ack", msg)
	}
	raw.Close()
	if got := db.Len(series); got != rowsBefore {
		t.Fatalf("replayed batch grew the store from %d to %d rows", rowsBefore, got)
	}

	// --- Zero duplicates stored ---------------------------------------------
	// The sensor emits a strictly increasing value, so any replayed or
	// duplicated batch that slipped past the dedupe would store the same
	// value twice.
	pts := db.Range(series, math.MinInt64, math.MaxInt64)
	if len(pts) == 0 {
		t.Fatal("no readings stored at all")
	}
	seen := make(map[float64]int64, len(pts))
	for _, p := range pts {
		if prev, dup := seen[p.Value]; dup {
			t.Fatalf("reading %v stored twice (t=%d and t=%d): duplicate slipped past dedupe", p.Value, prev, p.TimestampMillis)
		}
		seen[p.Value] = p.TimestampMillis
	}
	if got := cDeduped.Value() - dedupBefore; got < 1 {
		t.Fatalf("darnet_collect_batches_deduped_total moved by %d, want >= 1", got)
	}
	if st2, _ := ctrl.AgentStats("chaos"); st2.Sessions < 3 {
		t.Fatalf("sessions = %d, want >= 3 (initial + 2 resumes)", st2.Sessions)
	}

	// --- Degraded classification while the IMU stream is down ---------------
	// During a partition the engine has frames but no IMU window; it must
	// still classify (CNN-only, discounted confidence) and keep the distracted
	// decision, while the served alert FSM discounts that evidence.
	rng := rand.New(rand.NewSource(11))
	train := chaosTinyData(rng, 60, 16, 16, 3)
	cfg := core.DefaultTrainConfig()
	cfg.CNNEpochs = 8
	cfg.RNNEpochs = 3
	cfg.RNNHidden = 8
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 5
	eng, err := core.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a frame the healthy fused path classifies as distracted (class 1).
	var distracted []float64
	for i := 0; i < train.Frames.Dim(0); i++ {
		if train.Labels[i] == 1 {
			distracted = train.Frames.Row(i)
			break
		}
	}
	c, err := eng.Classify(distracted, imu.Window{})
	if err != nil {
		t.Fatalf("classify with partitioned IMU stream: %v", err)
	}
	if c.Mode != core.ModeCNNOnly || !c.Degraded() {
		t.Fatalf("mode = %v, want cnn-only degraded", c.Mode)
	}
	if c.Confidence >= c.Probs[c.Class] {
		t.Fatalf("degraded confidence %v not discounted below posterior peak %v", c.Confidence, c.Probs[c.Class])
	}
	if got := cDegraded.Value() - degradedBefore; got < 1 {
		t.Fatalf("darnet_core_degraded_classify_total moved by %d, want >= 1", got)
	}
	if c.Class == 0 {
		t.Fatalf("degraded classification lost the distracted decision (class 0)")
	}
	// The served alert FSM halves degraded evidence: 1 − P(normal) ≤ 1 becomes
	// ≤ 0.5, below the default 0.6 enter threshold, so a CNN-only window
	// alone never raises an alert.
	alerter, err := stream.NewAlerter(stream.AlertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := alerter.Observe(time.Now(), c); got != stream.AlertNone || alerter.Active() {
		t.Fatalf("alert event = %v, want none: degraded evidence alone must not raise", got)
	}
}
