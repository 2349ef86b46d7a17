package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"darnet/internal/collect"
	"darnet/internal/telemetry"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

func counterValue(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histogramCount(s telemetry.Snapshot, name string) int64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// waitUntil polls cond until it returns true or the deadline passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestControllerOpsIntegration drives a real agent stream over TCP through
// serveController and asserts the full observability surface: ingest
// counters, the tsdb insert histogram, a complete multi-stage trace on
// /tracez, and the /healthz + /metrics + pprof endpoints.
func TestControllerOpsIntegration(t *testing.T) {
	ln := listenLoopback(t)
	opsLn := listenLoopback(t)
	db := tsdb.New()
	ctrl := collect.NewController(db, wallMillis)
	ctrl.SetSyncPeriod(0) // every batch piggybacks a clock sync

	stop := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveController(ctrl, db, ln, opsLn, nil, stop, io.Discard)
	}()

	before := telemetry.Default.Snapshot()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.Send(&wire.Hello{AgentID: "it-1", Modality: "imu", PeriodMillis: 25}); err != nil {
		t.Fatal(err)
	}
	if msg, err := wc.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Ack); !ok {
		t.Fatalf("handshake reply = %T, want *wire.Ack", msg)
	}

	// More batches than the tracer's 1-in-64 sampling period, so at least
	// one complete darnet_ingest_batch trace is guaranteed to be captured.
	const batches = 65
	for i := 0; i < batches; i++ {
		batch := &wire.SampleBatch{AgentID: "it-1", Readings: []wire.Reading{
			{TimestampMillis: int64(1000 + i), Sensor: "accel", Values: []float64{0.1, 0.2, 9.8}},
			{TimestampMillis: int64(1000 + i), Sensor: collect.FrameSensorName, Values: make([]float64, 16)},
		}}
		if err := wc.Send(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		msg, err := wc.Recv()
		if err != nil {
			t.Fatalf("batch %d reply: %v", i, err)
		}
		if sync, ok := msg.(*wire.ClockSync); ok {
			if err := wc.Send(&wire.ClockAck{AgentID: "it-1", AgentMillis: sync.MasterMillis}); err != nil {
				t.Fatalf("batch %d clock ack: %v", i, err)
			}
			if msg, err = wc.Recv(); err != nil {
				t.Fatalf("batch %d post-sync reply: %v", i, err)
			}
		}
		ack, ok := msg.(*wire.Ack)
		if !ok {
			t.Fatalf("batch %d reply = %T, want *wire.Ack", i, msg)
		}
		if ack.Count != 2 {
			t.Fatalf("batch %d ack count = %d, want 2", i, ack.Count)
		}
	}

	// The controller counts a batch just after sending its ack, ending with
	// the ingest histogram, so the last batch may be uncounted when its ack
	// arrives: wait for that histogram before reading any counter.
	var after telemetry.Snapshot
	waitUntil(5*time.Second, func() bool {
		after = telemetry.Default.Snapshot()
		return histogramCount(after, "darnet_collect_ingest_seconds")-histogramCount(before, "darnet_collect_ingest_seconds") >= batches
	})
	for name, wantDelta := range map[string]int64{
		"darnet_collect_batches_total":      batches,
		"darnet_collect_readings_total":     2 * batches,
		"darnet_collect_frames_total":       batches,
		"darnet_collect_clock_syncs_total":  batches,
		"darnet_tsdb_points_inserted_total": 3 * batches, // 3 accel axes per batch
	} {
		if got := counterValue(after, name) - counterValue(before, name); got < wantDelta {
			t.Errorf("%s increased by %d, want >= %d", name, got, wantDelta)
		}
	}
	if got := histogramCount(after, "darnet_tsdb_insert_seconds") - histogramCount(before, "darnet_tsdb_insert_seconds"); got < 3*batches {
		t.Errorf("darnet_tsdb_insert_seconds count increased by %d, want >= %d", got, 3*batches)
	}
	if got := histogramCount(after, "darnet_collect_ingest_seconds") - histogramCount(before, "darnet_collect_ingest_seconds"); got < batches {
		t.Errorf("darnet_collect_ingest_seconds count increased by %d, want >= %d", got, batches)
	}

	base := "http://" + opsLn.Addr().String()
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	_, metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"darnet_collect_batches_total",
		"darnet_tsdb_insert_seconds_count",
		"darnet_wire_messages_received_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, body := httpGet(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// The sampled trace of the last in-flight batch may still be closing
	// when the final ack arrives; poll briefly.
	var ingest *telemetry.TraceNode
	waitUntil(2*time.Second, func() bool {
		var traces struct {
			Traces []*telemetry.TraceNode `json:"traces"`
		}
		_, body := httpGet(t, base+"/tracez")
		if err := json.Unmarshal([]byte(body), &traces); err != nil {
			t.Fatalf("/tracez JSON: %v", err)
		}
		for _, tr := range traces.Traces {
			if tr.Name == "darnet_ingest_batch" && len(tr.Children) >= 3 {
				ingest = tr
				return true
			}
		}
		return false
	})
	if ingest == nil {
		t.Fatal("/tracez never served a complete darnet_ingest_batch trace")
	}
	stages := make(map[string]bool)
	for _, c := range ingest.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"darnet_stage_agent_read", "darnet_stage_store", "darnet_stage_ack"} {
		if !stages[want] {
			t.Errorf("ingest trace missing stage %s (have %v)", want, stages)
		}
	}

	close(stop)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveController did not return after stop")
	}
}

// TestControllerShutdownNoLeak interrupts a controller that still has an
// agent blocked mid-stream and verifies both listeners close, the serve
// loop returns, and no goroutines are left behind.
func TestControllerShutdownNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ln := listenLoopback(t)
	opsLn := listenLoopback(t)
	db := tsdb.New()
	ctrl := collect.NewController(db, wallMillis)
	stop := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveController(ctrl, db, ln, opsLn, nil, stop, io.Discard)
	}()

	// Register an agent and leave it idle: the server sits blocked in Recv
	// and must be unblocked by shutdown closing the connection.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.Send(&wire.Hello{AgentID: "idle-1", Modality: "imu", PeriodMillis: 25}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Recv(); err != nil {
		t.Fatal(err)
	}

	close(stop)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveController did not return after stop with a blocked agent")
	}

	// Both listeners must be closed: new connections are refused.
	for _, addr := range []string{ln.Addr().String(), opsLn.Addr().String()} {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			//lint:ignore errdrop test cleanup of an unexpected success
			c.Close()
			t.Errorf("listener %s still accepting after shutdown", addr)
		}
	}

	if !waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}
