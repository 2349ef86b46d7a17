package darnet

// Streaming chaos integration test: the full agent → controller → classify
// pipeline under injected transport faults WHILE the classify stage is
// saturated. A deliberately slow ticker caps classify throughput far below
// the agent's offered rate, so the bounded queue sheds and admission credits
// collapse; meanwhile the transport hard-partitions twice and then duplicates
// frames, turning delivered batches into replays. The invariants: every
// buffer stays bounded (queue depth ≤ cap, agent spill ≤ MaxSpill), data is
// shed — not accumulated — under overload, and the alert state machine never
// emits duplicate transitions (two raises without an intervening clear)
// despite retransmitted batches, reconnects, and shed evidence.

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/fault"
	"darnet/internal/imu"
	"darnet/internal/stream"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// slowTicker is a classify stage with a hard throughput ceiling: every IMU
// sample costs delay, and the distracted score is read straight off the
// sample's first accelerometer axis. No training needed — the test is about
// flow control, not model quality.
type slowTicker struct {
	delay time.Duration
}

func (s *slowTicker) Tick(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error) {
	if sample == nil {
		return nil, false, nil // frame-only inputs carry no evidence here
	}
	time.Sleep(s.delay)
	d := sample.Accel[0]
	cls := &core.Classification{
		Class:      0,
		Probs:      []float64{1 - d, d},
		Confidence: 1 - d,
		Mode:       core.ModeFused,
	}
	if d > 0.5 {
		cls.Class = 1
		cls.Confidence = d
	}
	return cls, true, nil
}

func TestStreamingSurvivesChaosWhileSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming chaos integration test skipped in -short mode")
	}
	const (
		queueCap = 16
		maxSpill = 500
	)

	// --- Alert transition log ----------------------------------------------
	var (
		evMu   sync.Mutex
		events []stream.AlertEvent
	)
	countEv := func(want stream.AlertEvent) int {
		evMu.Lock()
		defer evMu.Unlock()
		n := 0
		for _, ev := range events {
			if ev == want {
				n++
			}
		}
		return n
	}

	// --- Saturable streaming mux -------------------------------------------
	mux, err := stream.NewMux(stream.Config{
		QueueCap:     queueCap,
		FrameSkipMax: 2,
		Alert:        stream.AlertConfig{NormalClass: 0, Dwell: 50 * time.Millisecond},
		OnAlert: func(agentID string, ev stream.AlertEvent, cls *core.Classification) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	}, func() (stream.Ticker, error) { return &slowTicker{delay: 2 * time.Millisecond}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Shutdown()

	// --- Controller over loopback TCP --------------------------------------
	db := tsdb.New()
	ctrl := collect.NewController(db, func() int64 { return time.Now().UnixMilli() })
	ctrl.SetStreamSink(mux)
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
				//lint:ignore errdrop chaos sessions end in injected faults
				ctrl.ServeConn(wire.NewConn(conn))
			}()
		}
	}()

	// --- Fault schedule: two hard partitions, then duplicated frames --------
	var dials atomic.Int64
	dialer := func() (*wire.Conn, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		n := dials.Add(1)
		cfg := fault.Config{Seed: 900 + n}
		if n <= 2 {
			cfg.PartitionAfterWrites = []int{20}
		} else {
			cfg.DupRate = 0.3
		}
		return wire.NewConn(fault.NewTransport(raw, cfg)), nil
	}

	// --- Agent: pre-fused IMU channel whose first axis scripts the phases ---
	// distracted is flipped by the test; the sensor emits a 13-wide pre-fused
	// sample the stream assembler accepts directly.
	var distracted atomic.Bool
	distracted.Store(true)
	sensors := []collect.Sensor{collect.SensorFunc{SensorName: "imu", ReadFunc: func() []float64 {
		v := make([]float64, imu.FeatureDim)
		if distracted.Load() {
			v[0] = 0.9
		} else {
			v[0] = 0.1
		}
		return v
	}}}
	conn, err := dialer()
	if err != nil {
		t.Fatal(err)
	}
	clock := collect.NewDriftClock(func() int64 { return time.Now().UnixMilli() }, 0)
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: "sat-chaos", Modality: "imu", PollPeriodMS: 1,
		AckTimeout: 300 * time.Millisecond, MaxSpill: maxSpill,
	}, clock, sensors, conn)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := collect.StartRunnerConfig(agent, collect.RunnerConfig{
		FlushEvery:  5 * time.Millisecond,
		Dialer:      dialer,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  30 * time.Millisecond,
		MaxAttempts: -1,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- Phase script, event-driven: raise → clear → raise ------------------
	waitEv := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.After(20 * time.Second)
		for !cond() {
			select {
			case <-deadline:
				evMu.Lock()
				got := append([]stream.AlertEvent(nil), events...)
				evMu.Unlock()
				t.Fatalf("%s never happened (events=%v stats=%+v reconnects=%d err=%v)",
					what, got, mux.Stats(), runner.Reconnects(), runner.Err())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	waitEv("first alert raise under saturation", func() bool { return countEv(stream.AlertRaised) >= 1 })
	distracted.Store(false)
	waitEv("alert clear after evidence subsides", func() bool { return countEv(stream.AlertCleared) >= 1 })
	distracted.Store(true)
	waitEv("re-raise after recovery", func() bool { return countEv(stream.AlertRaised) >= 2 })
	// Both scheduled partitions must have fired while the stream was running.
	waitEv("both partitions survived", func() bool { return runner.Reconnects() >= 2 })

	if err := runner.Shutdown(); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}
	mux.Shutdown()

	// --- Bounded memory under overload --------------------------------------
	s := mux.Stats()
	if s.MaxDepth > queueCap {
		t.Fatalf("classify queue depth reached %d, cap %d: admission bound broken", s.MaxDepth, queueCap)
	}
	if shed := s.ShedReadings + agent.SpillDropped(); shed <= 0 {
		t.Fatalf("nothing shed at either valve (queue shed=%d spill=%d): the run never saturated", s.ShedReadings, agent.SpillDropped())
	}
	if got := agent.Buffered(); got > maxSpill {
		t.Fatalf("agent retains %d readings, spill bound %d", got, maxSpill)
	}

	// --- Zero duplicate alerts ----------------------------------------------
	// Retransmitted batches, duplicated frames, and watchdog-restarted
	// workers must never produce two raises without an intervening clear.
	evMu.Lock()
	defer evMu.Unlock()
	if len(events) == 0 {
		t.Fatal("no alert transitions at all")
	}
	if events[0] != stream.AlertRaised {
		t.Fatalf("first transition = %v, want raised", events[0])
	}
	for i := 1; i < len(events); i++ {
		if events[i] == events[i-1] {
			t.Fatalf("duplicate alert transition at %d: %v (full log %v)", i, events[i], events)
		}
	}
}
