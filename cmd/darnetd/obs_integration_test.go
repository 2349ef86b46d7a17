package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/synth"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

func TestObsOptionsValidate(t *testing.T) {
	good := obsOptions{scrapeInterval: time.Second, retention: time.Hour, alertP99: 0.5}
	if err := good.validate(); err != nil {
		t.Fatalf("default-shaped options rejected: %v", err)
	}
	disabled := good
	disabled.scrapeInterval = 0
	if err := disabled.validate(); err != nil {
		t.Fatalf("disabled bridge rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*obsOptions)
	}{
		{"negative interval", func(o *obsOptions) { o.scrapeInterval = -time.Second }},
		{"zero retention", func(o *obsOptions) { o.retention = 0 }},
		{"zero slo threshold", func(o *obsOptions) { o.alertP99 = 0 }},
		{"negative slo threshold", func(o *obsOptions) { o.alertP99 = -1 }},
	}
	for _, tc := range cases {
		o := good
		tc.mut(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, o)
		}
	}
}

// syncWriter serializes the controller's statusf output: the serve goroutines
// write concurrently, and the tests read the buffer after shutdown.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// obsClient is a hand-rolled wire agent for the observability integration
// tests: it speaks the handshake, answers clock syncs, can stamp batches
// with trace context exactly the way collect.Agent's flush does, and holds a
// batch back until the controller's admission grant covers it.
type obsClient struct {
	t       *testing.T
	wc      *wire.Conn
	id      string
	seq     uint64
	credits uint32 // last admission grant; unlimited when the controller sends none
}

func dialObsClient(t *testing.T, addr, id string) *obsClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore errdrop test cleanup; the close error leaves nothing to act on
		conn.Close()
	})
	wc := wire.NewConn(conn)
	if err := wc.Send(&wire.Hello{AgentID: id, Modality: "imu", PeriodMillis: 25}); err != nil {
		t.Fatal(err)
	}
	c := &obsClient{t: t, wc: wc, id: id, credits: math.MaxUint32}
	c.awaitAck("handshake")
	return c
}

// sendBatch sends one batch (with the given trace context, zero for a legacy
// v3-style peer) and consumes replies until the ack, answering any clock sync
// on the way. Like collect.Runner under a zero grant, it heartbeats instead
// of sending while the grant is short of the batch, so no reading of a
// (possibly sampled) batch is shed at the classify queue.
func (c *obsClient) sendBatch(readings []wire.Reading, trace telemetry.SpanContext) *wire.Ack {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.credits < uint32(len(readings)) {
		if time.Now().After(deadline) {
			c.t.Fatalf("admission grant stayed at %d, below the %d-reading batch", c.credits, len(readings))
		}
		time.Sleep(2 * time.Millisecond)
		if err := c.wc.Send(&wire.Heartbeat{AgentID: c.id}); err != nil {
			c.t.Fatal(err)
		}
		c.awaitAck("heartbeat")
	}
	c.seq++
	batch := &wire.SampleBatch{AgentID: c.id, Seq: c.seq, Readings: readings, Trace: trace}
	if err := c.wc.Send(batch); err != nil {
		c.t.Fatalf("batch %d: %v", c.seq, err)
	}
	return c.awaitAck(fmt.Sprintf("batch %d", c.seq))
}

// awaitAck consumes replies until an ack, answering any clock sync on the
// way, and records the ack's admission grant.
func (c *obsClient) awaitAck(what string) *wire.Ack {
	c.t.Helper()
	for {
		msg, err := c.wc.Recv()
		if err != nil {
			c.t.Fatalf("%s reply: %v", what, err)
		}
		switch m := msg.(type) {
		case *wire.ClockSync:
			if err := c.wc.Send(&wire.ClockAck{AgentID: c.id, AgentMillis: m.MasterMillis}); err != nil {
				c.t.Fatal(err)
			}
		case *wire.Ack:
			if n, ok := wire.DecodeCredits(m.Credits); ok {
				c.credits = n
			}
			return m
		default:
			c.t.Fatalf("%s reply = %T, want *wire.Ack", what, msg)
		}
	}
}

// tracedFlush mirrors collect.Agent's instrumented flush: a root span whose
// context rides the batch, stamped with the send instant for the controller's
// wire-transit segment.
func (c *obsClient) tracedFlush(readings []wire.Reading) {
	root := telemetry.DefaultTracer.StartRoot("darnet_agent_flush_batch")
	trace := root.Context()
	trace.SentUnixNano = time.Now().UnixNano()
	c.sendBatch(readings, trace)
	root.End()
}

// parseShutdownSummary finds and decodes the shutdown-summary line.
func parseShutdownSummary(t *testing.T, out string) shutdownSummary {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, "shutdown-summary ")
		if !ok {
			continue
		}
		var sum shutdownSummary
		if err := json.Unmarshal([]byte(rest), &sum); err != nil {
			t.Fatalf("shutdown-summary line is not valid JSON: %v\n%s", err, line)
		}
		return sum
	}
	t.Fatalf("no shutdown-summary line in output:\n%s", out)
	return shutdownSummary{}
}

// TestControllerShutdownFlushesFinalScrape runs the full controller lifecycle
// on ephemeral ports with an hour-long scrape interval: the only way history
// can exist at exit is the shutdown flush, and the summary line must report
// it after the flush happened.
func TestControllerShutdownFlushesFinalScrape(t *testing.T) {
	ln := listenLoopback(t)
	opsLn := listenLoopback(t)
	sOpts := streamOptions{queueCap: 8, skipMax: 2, dwell: 50 * time.Millisecond}
	oOpts := obsOptions{scrapeInterval: time.Hour, retention: time.Hour, alertP99: 0.5}
	out := &syncWriter{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runControllerWith(ln, opsLn, 0, sOpts, oOpts, durOptions{fsync: "interval"}, stop, out)
	}()

	c := dialObsClient(t, ln.Addr().String(), "sum-1")
	c.sendBatch([]wire.Reading{
		{TimestampMillis: 1000, Sensor: "accel", Values: []float64{0.1, 0.2, 9.8}},
	}, telemetry.SpanContext{})

	// The history route is mounted (and empty-legal) before any scrape ran.
	base := "http://" + opsLn.Addr().String()
	if code, _ := httpGet(t, base+"/metrics/history"); code != http.StatusOK {
		t.Fatalf("/metrics/history listing = %d, want 200", code)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runControllerWith: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runControllerWith did not return after stop")
	}

	sum := parseShutdownSummary(t, out.String())
	if sum.Scrapes < 1 {
		t.Errorf("summary scrapes = %d, want >= 1 from the shutdown flush", sum.Scrapes)
	}
	if sum.HistorySeries == 0 {
		t.Error("summary reports no history series after the final flush")
	}
	if sum.Agents != 1 {
		t.Errorf("summary agents = %d, want 1", sum.Agents)
	}
	if sum.SLOStatus == "" || sum.SLOStatus == "disabled" {
		t.Errorf("summary slo_status = %q, want an evaluator verdict", sum.SLOStatus)
	}
}

// traceStageNames flattens a merged trace tree into its span-name set.
func traceStageNames(tr *telemetry.TraceNode, into map[string]bool) {
	into[tr.Name] = true
	for _, c := range tr.Children {
		traceStageNames(c, into)
	}
}

// TestMergedTraceAcrossWire is the end-to-end distributed-tracing check: a
// traced peer streams IMU+frame batches into a streaming controller over
// loopback TCP, and /tracez must serve at least one MERGED trace rooted at
// the agent's flush span and spanning wire transit, queue dwell, classify,
// and alert — while a legacy v3-style peer (no trace field) keeps
// interoperating on the same controller.
func TestMergedTraceAcrossWire(t *testing.T) {
	ln := listenLoopback(t)
	opsLn := listenLoopback(t)
	sOpts := streamOptions{
		enginePath: tinyEngineSnapshot(t),
		queueCap:   64,
		skipMax:    4,
		dwell:      50 * time.Millisecond,
	}
	oOpts := obsOptions{scrapeInterval: 50 * time.Millisecond, retention: time.Hour, alertP99: 0.5}
	out := &syncWriter{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runControllerWith(ln, opsLn, 0, sOpts, oOpts, durOptions{fsync: "interval"}, stop, out)
	}()

	cfg := synth.DefaultConfig()
	frame := make([]float64, cfg.ImgW*cfg.ImgH)
	// Each batch carries one camera frame plus a FULL recurrent window of
	// pre-fused IMU samples, so every single flush completes a window and
	// produces a decision — whichever flush the 1-in-64 sampler picks, its
	// merged trace includes the alert stage.
	readingsAt := func(i int) []wire.Reading {
		rs := []wire.Reading{
			{TimestampMillis: int64(1000 + 1000*i), Sensor: collect.FrameSensorName, Values: frame},
		}
		for s := 0; s < imu.WindowSize; s++ {
			rs = append(rs, wire.Reading{
				TimestampMillis: int64(1000 + 1000*i + 25*s),
				Sensor:          "imu",
				Values:          make([]float64, imu.FeatureDim),
			})
		}
		return rs
	}

	c := dialObsClient(t, ln.Addr().String(), "traced-1")
	// Prime the CNN distribution so fused decisions are possible from the
	// first traced flush.
	c.sendBatch(readingsAt(0), telemetry.SpanContext{})
	// More traced flushes than the tracer's 1-in-64 sampling period: at least
	// one is sampled end to end (flush → ingest → tick fragments).
	for i := 0; i < 70; i++ {
		c.tracedFlush(readingsAt(1 + i))
	}

	// A legacy peer on the same controller: its traceless v4 frames are
	// byte-identical to v3 and must keep flowing.
	legacy := dialObsClient(t, ln.Addr().String(), "legacy-1")
	for i := 0; i < 3; i++ {
		ack := legacy.sendBatch([]wire.Reading{
			{TimestampMillis: int64(2000 + i), Sensor: "accel", Values: []float64{0.1, 0.2, 9.8}},
		}, telemetry.SpanContext{})
		if ack.Count != 1 {
			t.Fatalf("legacy batch %d ack count = %d, want 1", i, ack.Count)
		}
	}

	base := "http://" + opsLn.Addr().String()

	// The merged agent→controller trace: flush root, remote-joined ingest,
	// and the four required stage spans. Fragments end asynchronously (the
	// stream tick closes in the worker), so poll.
	wantStages := []string{
		"darnet_ingest_batch",
		"darnet_stage_wire_transit",
		"darnet_stage_queue_dwell",
		"darnet_stage_classify_tick",
		"darnet_stage_alert",
	}
	var lastStages map[string]bool
	merged := waitUntil(10*time.Second, func() bool {
		var traces struct {
			Traces []*telemetry.TraceNode `json:"traces"`
		}
		_, body := httpGet(t, base+"/tracez")
		if err := json.Unmarshal([]byte(body), &traces); err != nil {
			t.Fatalf("/tracez JSON: %v", err)
		}
		for _, tr := range traces.Traces {
			if tr.Name != "darnet_agent_flush_batch" {
				continue
			}
			stages := make(map[string]bool)
			traceStageNames(tr, stages)
			lastStages = stages
			ok := true
			for _, want := range wantStages {
				if !stages[want] {
					ok = false
				}
			}
			if ok {
				return true
			}
		}
		return false
	})
	if !merged {
		t.Fatalf("/tracez never served a merged flush→ingest→tick trace; best candidate had stages %v", lastStages)
	}

	// The background scraper feeds /metrics/history while the run is live.
	if !waitUntil(5*time.Second, func() bool {
		code, body := httpGet(t, base+"/metrics/history?series=darnet_collect_batches_total")
		return code == http.StatusOK && strings.Contains(body, "points")
	}) {
		t.Fatal("/metrics/history never served the scraped ingest counter")
	}

	// The SLO evaluator drives /healthz; a healthy run answers 200.
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// pprof goroutine labels: the connection serve goroutines and the stream
	// workers must be attributable by stage and agent.
	_, prof := httpGet(t, base+"/debug/pprof/goroutine?debug=1")
	for _, want := range []string{"controller_conn", "stream_worker", "darnet_stage"} {
		if !strings.Contains(prof, want) {
			t.Errorf("goroutine profile missing label %q", want)
		}
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runControllerWith: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runControllerWith did not return after stop")
	}

	sum := parseShutdownSummary(t, out.String())
	if sum.StreamDecisions == 0 {
		t.Error("summary reports no stream decisions after a classified run")
	}
	if sum.Scrapes < 2 {
		t.Errorf("summary scrapes = %d, want >= 2 (background + final flush)", sum.Scrapes)
	}
}
