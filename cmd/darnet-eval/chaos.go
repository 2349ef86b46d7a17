package main

// The chaos experiment measures the collection middleware's resilience under
// a fixed fault schedule: an agent streams over loopback TCP through a
// fault.Transport that hard-partitions the first two connections and
// duplicates frames afterwards, and the report records ingest throughput,
// per-partition recovery time, and the dedupe/spill accounting. It is the
// robustness counterpart of the -exp bench latency probe.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"darnet/internal/collect"
	"darnet/internal/fault"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// Fixed fault schedule for the chaos experiment: two scheduled partitions,
// then duplicated frames for the rest of the run.
const (
	chaosPartitionAfter = 40  // writes before each scheduled partition
	chaosDupRate        = 0.3 // duplicate-delivery probability after the partitions
	chaosRunFor         = 3 * time.Second
)

// chaosBench runs the fixed fault schedule and writes the report to outPath:
// ingest throughput under faults, recovery time for every injected
// partition, and the resilience accounting (reconnects, deduped replays,
// spilled readings).
func chaosBench(seed int64, outPath string) error {
	db := tsdb.New()
	ctrl := collect.NewController(db, func() int64 { return time.Now().UnixMilli() })
	ctrl.SetIdleTimeout(2 * time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
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
				//lint:ignore errdrop chaos sessions end in injected faults by design
				ctrl.ServeConn(wire.NewConn(conn))
			}()
		}
	}()

	// Partition timestamps feed the recovery-time measurement below.
	var mu sync.Mutex
	var partitionAt []time.Time
	var dials int64
	dialer := func() (*wire.Conn, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		cfg := fault.Config{Seed: seed + n}
		if n <= 2 {
			cfg.PartitionAfterWrites = []int{chaosPartitionAfter}
			cfg.OnEvent = func(e fault.Event) {
				if e.Kind == fault.EventPartition {
					mu.Lock()
					partitionAt = append(partitionAt, time.Now())
					mu.Unlock()
				}
			}
		} else {
			cfg.DupRate = chaosDupRate
		}
		return wire.NewConn(fault.NewTransport(raw, cfg)), nil
	}

	conn, err := dialer()
	if err != nil {
		return err
	}
	clock := collect.NewDriftClock(func() int64 { return time.Now().UnixMilli() }, 0)
	var tick int64
	sensors := []collect.Sensor{collect.SensorFunc{SensorName: "s", ReadFunc: func() []float64 {
		tick++
		return []float64{float64(tick)}
	}}}
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: "chaos", Modality: "imu", PollPeriodMS: 2,
		AckTimeout: time.Second, MaxSpill: 100_000,
	}, clock, sensors, conn)
	if err != nil {
		return err
	}
	start := time.Now()
	runner, err := collect.StartRunnerConfig(agent, collect.RunnerConfig{
		FlushEvery:  10 * time.Millisecond,
		Dialer:      dialer,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: -1,
		Seed:        seed,
	})
	if err != nil {
		return err
	}

	// Recovery time of partition k: from the injected fault to the first new
	// reading stored afterwards — the span during which ingest was down.
	series := collect.SeriesName("chaos", "s") + "[0]"
	var recoveredAt []time.Time
	lastLen := 0
	for time.Since(start) < chaosRunFor {
		time.Sleep(time.Millisecond)
		if n := db.Len(series); n > lastLen {
			lastLen = n
			mu.Lock()
			if len(recoveredAt) < len(partitionAt) {
				recoveredAt = append(recoveredAt, time.Now())
			}
			mu.Unlock()
		}
	}
	if err := runner.Shutdown(); err != nil {
		return fmt.Errorf("chaos runner: %w", err)
	}
	elapsed := time.Since(start)

	st, ok := ctrl.AgentStats("chaos")
	if !ok {
		return fmt.Errorf("chaos agent never registered")
	}
	stored := db.Len(series)
	if stored == 0 {
		return fmt.Errorf("chaos run stored no readings")
	}
	if got := runner.Reconnects(); got < 2 {
		return fmt.Errorf("chaos run survived only %d partitions, want 2", got)
	}

	m := metricSet{}
	m.set("duration_ms", float64(elapsed.Milliseconds()), "ms")
	m.set("readings_stored", float64(stored), "count")
	m.set("throughput_rps", float64(stored)/elapsed.Seconds(), "1/s")
	m.set("partitions", float64(len(partitionAt)), "count")
	m.set("reconnects", float64(runner.Reconnects()), "count")
	m.set("deduped", float64(st.Deduped), "count")
	m.set("spill_dropped", float64(agent.SpillDropped()), "count")
	maxMS := 0.0
	for i, p := range partitionAt {
		if i < len(recoveredAt) {
			ms := float64(recoveredAt[i].Sub(p).Microseconds()) / 1000
			m.set(fmt.Sprintf("partition%d.recovery_ms", i+1), ms, "ms")
			maxMS = max(maxMS, ms)
		}
	}
	m.set("recovery_max_ms", maxMS, "ms")
	return writeReport(outPath, "chaos", seed, m)
}
