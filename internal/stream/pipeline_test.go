package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darnet/internal/core"
	"darnet/internal/fault"
	"darnet/internal/imu"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

// funcTicker adapts a closure into a Ticker for deterministic tests.
type funcTicker struct {
	fn func(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error)
}

func (f funcTicker) Tick(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error) {
	return f.fn(sample, frame, skipFrame)
}

func factoryOf(tk Ticker) TickerFactory {
	return func() (Ticker, error) { return tk, nil }
}

// cls builds a classification with the given distracted evidence
// (probs = [1-distracted, distracted], normal class 0).
func cls(distracted float64) *core.Classification {
	return &core.Classification{
		Class:      1,
		Probs:      []float64{1 - distracted, distracted},
		Mode:       core.ModeFused,
		Confidence: distracted,
	}
}

func sampleInput(ts int64) Input {
	return Input{Sample: &imu.Sample{TimestampMillis: ts}, At: time.Unix(0, ts), Weight: 1}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPipelineBoundedUnderSaturation wedges the worker, floods the queue far
// past capacity, and asserts the bound held and every overflow reading was
// counted as shed — the "no silent queue growth" half of the robustness
// contract.
func TestPipelineBoundedUnderSaturation(t *testing.T) {
	const cap = 4
	tokens := make(chan struct{})
	tk := funcTicker{fn: func(*imu.Sample, []float64, bool) (*core.Classification, bool, error) {
		_, ok := <-tokens
		_ = ok
		return nil, false, nil
	}}
	p, err := NewPipeline("a", Config{QueueCap: cap, StallTimeout: time.Hour}, factoryOf(tk))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	// Park the worker on the first input so queue depth is fully under test
	// control.
	if !p.Offer(sampleInput(0)) {
		t.Fatal("first offer rejected")
	}
	waitFor(t, "worker busy", func() bool { return p.busySince.Load() != 0 })

	const flood = cap + 7
	admitted := 0
	for i := 1; i <= flood; i++ {
		if p.Offer(sampleInput(int64(i))) {
			admitted++
		}
	}
	s := p.Stats()
	if admitted != cap {
		t.Fatalf("admitted %d of %d floods, want exactly cap %d", admitted, flood, cap)
	}
	if s.MaxDepth > cap {
		t.Fatalf("max queue depth %d exceeded cap %d", s.MaxDepth, cap)
	}
	if s.ShedReadings != flood-cap {
		t.Fatalf("shed %d readings, want %d", s.ShedReadings, flood-cap)
	}

	close(tokens) // release the worker; everything admitted must drain
	waitFor(t, "queue drained", func() bool { return p.Stats().Depth == 0 })
	if got := p.Stats().Enqueued; got != int64(cap)+1 {
		t.Fatalf("enqueued %d, want %d", got, cap+1)
	}
}

// TestFrameSkipHysteresis drives queue depth across the engage and release
// thresholds and asserts skipping turns on, respects FrameSkipMax (every
// (max+1)-th frame classified for real), and turns back off.
func TestFrameSkipHysteresis(t *testing.T) {
	const cap = 8
	tokens := make(chan struct{}, 1024)
	var classified, skippedCount atomic.Int64
	tk := funcTicker{fn: func(_ *imu.Sample, frame []float64, skip bool) (*core.Classification, bool, error) {
		_, ok := <-tokens
		_ = ok
		if frame != nil {
			if skip {
				skippedCount.Add(1)
				return nil, true, nil
			}
			classified.Add(1)
		}
		return nil, false, nil
	}}
	p, err := NewPipeline("a", Config{
		QueueCap: cap, FrameSkipMax: 2, EngageDepth: 6, ReleaseDepth: 2,
		StallTimeout: time.Hour,
	}, factoryOf(tk))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	defer close(tokens)

	frameInput := func(i int) Input { return Input{Frame: []float64{float64(i)}, At: time.Now(), Weight: 1} }

	// Park the worker, then stack 7 more frames: depth 7 ≥ engage 6 when the
	// worker next samples it.
	p.Offer(frameInput(0))
	waitFor(t, "worker busy", func() bool { return p.busySince.Load() != 0 })
	for i := 1; i <= 7; i++ {
		if !p.Offer(frameInput(i)) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	for i := 0; i < 8; i++ {
		tokens <- struct{}{}
	}
	waitFor(t, "burst drained", func() bool { return p.Stats().Depth == 0 })

	s := p.Stats()
	// Depth was ≥ engage when the worker resumed, so skipping must have
	// engaged mid-burst (skips only happen while engaged).
	if s.FramesSkipped == 0 {
		t.Fatal("frame skipping never engaged under a saturated queue")
	}
	if skippedCount.Load() != s.FramesSkipped {
		t.Fatalf("ticker skipped %d but stats say %d", skippedCount.Load(), s.FramesSkipped)
	}
	// FrameSkipMax=2 means within the engaged stretch a real classification
	// happens at least every 3rd frame.
	if classified.Load() == 0 {
		t.Fatal("FrameSkipMax must force periodic real classifications")
	}
	// The drain took depth through the release threshold, so skipping must
	// have disengaged again — degradation is not sticky.
	waitFor(t, "release", func() bool { return !p.Skipping() })
}

// TestAlertHysteresisAndDwell unit-tests the FSM with a fake clock: the score
// band plus dwell must both be crossed, and raise/clear strictly alternate.
func TestAlertHysteresisAndDwell(t *testing.T) {
	fsm := Alerter{cfg: AlertConfig{NormalClass: 0, Enter: 0.6, Exit: 0.4, Dwell: 100 * time.Millisecond}}
	at := func(ms int64) time.Time { return time.Unix(0, ms*int64(time.Millisecond)) }

	if ev := fsm.Observe(at(0), cls(0.9)); ev != AlertNone {
		t.Fatalf("first qualifying window raised immediately despite dwell: %v", ev)
	}
	if ev := fsm.Observe(at(50), cls(0.9)); ev != AlertNone {
		t.Fatalf("raised before dwell elapsed: %v", ev)
	}
	// Dip below Enter resets the dwell clock.
	if ev := fsm.Observe(at(60), cls(0.3)); ev != AlertNone {
		t.Fatal("dip must not transition")
	}
	if ev := fsm.Observe(at(70), cls(0.9)); ev != AlertNone {
		t.Fatal("dwell must restart after the dip")
	}
	if ev := fsm.Observe(at(200), cls(0.9)); ev != AlertRaised {
		t.Fatalf("sustained evidence past dwell must raise, got %v", ev)
	}
	// Mid-band score (between Exit and Enter) keeps the alert raised.
	if ev := fsm.Observe(at(250), cls(0.5)); ev != AlertNone || !fsm.active {
		t.Fatal("mid-band score must not clear (hysteresis)")
	}
	if ev := fsm.Observe(at(300), cls(0.2)); ev != AlertNone {
		t.Fatal("clear must also dwell")
	}
	if ev := fsm.Observe(at(450), cls(0.2)); ev != AlertCleared {
		t.Fatalf("sustained normal past dwell must clear, got %v", ev)
	}

	// Degraded classifications count for half: 0.9 distracted · 0.5 = 0.45 <
	// Enter, so a degraded stream alone cannot raise.
	deg := cls(0.9)
	deg.Mode = core.ModeRNNOnly
	fsm2 := Alerter{cfg: AlertConfig{NormalClass: 0, Enter: 0.6, Exit: 0.4}}
	if ev := fsm2.Observe(at(0), deg); ev != AlertNone || fsm2.active {
		t.Fatal("discounted degraded evidence must not cross Enter")
	}
}

// TestWatchdogRestartsStalledStage wedges the first ticker on a fault.Gate,
// lets the watchdog supersede it, and asserts the replacement drains the
// queue, the restart is counted, and Shutdown reaps every generation.
func TestWatchdogRestartsStalledStage(t *testing.T) {
	gate := fault.NewGate()
	var built atomic.Int64
	var processed atomic.Int64
	factory := func() (Ticker, error) {
		n := built.Add(1)
		return funcTicker{fn: func(*imu.Sample, []float64, bool) (*core.Classification, bool, error) {
			if n == 1 {
				gate.Wait() // first generation wedges mid-tick
				return nil, false, nil
			}
			processed.Add(1)
			return nil, false, nil
		}}, nil
	}
	p, err := NewPipeline("a", Config{
		QueueCap: 8, StallTimeout: 50 * time.Millisecond, WatchdogPoll: 10 * time.Millisecond,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}

	p.Offer(sampleInput(1)) // wedges generation 1
	p.Offer(sampleInput(2)) // must be processed by generation 2
	waitFor(t, "watchdog restart", func() bool { return p.Stats().Restarts >= 1 })
	waitFor(t, "replacement drains queue", func() bool { return processed.Load() >= 1 })
	if built.Load() < 2 {
		t.Fatalf("factory built %d tickers, want ≥ 2", built.Load())
	}

	gate.Open() // un-wedge generation 1 so Shutdown can reap it
	p.Shutdown()
	if p.Stats().Restarts < 1 {
		t.Fatal("restart not recorded")
	}
}

// TestMuxRoutingCreditsAndHealth covers the controller-facing surface:
// per-agent pipelines, reading assembly, credit grants shrinking with queue
// depth, and the ok/overloaded/degraded health states.
func TestMuxRoutingCreditsAndHealth(t *testing.T) {
	const cap = 4
	tokens := make(chan struct{})
	tk := funcTicker{fn: func(*imu.Sample, []float64, bool) (*core.Classification, bool, error) {
		_, ok := <-tokens
		_ = ok
		return nil, false, nil
	}}
	m, err := NewMux(Config{QueueCap: cap, StallTimeout: time.Hour}, factoryOf(tk))
	if err != nil {
		t.Fatal(err)
	}

	if c := m.Credits("nobody"); c != cap {
		t.Fatalf("first-contact credits = %d, want full queue %d", c, cap)
	}
	if h := m.Health(); !h.OK || h.Status != "ok" {
		t.Fatalf("idle health = %+v", h)
	}

	imuReading := func(ts int64) wire.Reading {
		return wire.Reading{TimestampMillis: ts, Sensor: "imu", Values: make([]float64, imu.FeatureDim)}
	}
	// Park agent a's worker, then fill its queue exactly.
	accepted, credits := m.Offer("a", []wire.Reading{imuReading(0)}, telemetry.SpanContext{})
	if accepted != 1 {
		t.Fatalf("accepted = %d", accepted)
	}
	waitFor(t, "worker busy", func() bool { return m.Pipeline("a").busySince.Load() != 0 })
	batch := make([]wire.Reading, cap+3)
	for i := range batch {
		batch[i] = imuReading(int64(i + 1))
	}
	accepted, credits = m.Offer("a", batch, telemetry.SpanContext{})
	if accepted != cap {
		t.Fatalf("saturated offer accepted %d, want %d", accepted, cap)
	}
	if credits != 0 {
		t.Fatalf("saturated credits = %d, want 0", credits)
	}
	if h := m.Health(); h.OK || h.Status != "overloaded: classify queue at capacity" {
		t.Fatalf("saturated health = %+v", h)
	}
	if s := m.Pipeline("a").Stats(); s.ShedReadings != 3 || s.MaxDepth != cap {
		t.Fatalf("saturated stats = %+v", s)
	}

	// A second agent gets its own pipeline with its own free queue.
	if c := m.Credits("b"); c != cap {
		t.Fatalf("agent b credits = %d, want %d", c, cap)
	}
	if _, credits = m.Offer("b", []wire.Reading{imuReading(0)}, telemetry.SpanContext{}); credits > cap {
		t.Fatalf("agent b credits after offer = %d", credits)
	}
	if m.Pipeline("a") == m.Pipeline("b") {
		t.Fatal("agents must not share a pipeline")
	}

	close(tokens)
	waitFor(t, "drain", func() bool { return m.Stats().Depth == 0 })
	m.Shutdown()
	if c := m.Credits("a"); c != 0 {
		t.Fatalf("credits after shutdown = %d, want 0", c)
	}
	if a, _ := m.Offer("a", []wire.Reading{imuReading(9)}, telemetry.SpanContext{}); a != 0 {
		t.Fatalf("offer after shutdown accepted %d", a)
	}
	if h := m.Health(); h.OK {
		t.Fatalf("health after shutdown = %+v", h)
	}
}

// TestAssembler covers the reading-to-input reassembly: four-channel
// grouping by timestamp, the pre-fused and frame fast paths, ignored
// channels, and the bounded pending set.
func TestAssembler(t *testing.T) {
	a := newAssembler()
	at := time.Unix(0, 0)

	r := func(ts int64, sensor string, n int) wire.Reading {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(ts*100) + float64(i)
		}
		return wire.Reading{TimestampMillis: ts, Sensor: sensor, Values: vals}
	}

	// Four channels with one timestamp complete one sample.
	for _, sensor := range []struct {
		name string
		n    int
	}{{"accel", 3}, {"gyro", 3}, {"gravity", 3}} {
		if _, ok := a.push(r(7, sensor.name, sensor.n), at); ok {
			t.Fatalf("%s alone completed a sample", sensor.name)
		}
	}
	in, ok := a.push(r(7, "rotation", 4), at)
	if !ok || in.Sample == nil || in.Weight != 4 {
		t.Fatalf("four channels did not complete a sample: %+v ok=%v", in, ok)
	}
	if in.Sample.TimestampMillis != 7 || in.Sample.Accel[1] != 701 || in.Sample.Rotation[3] != 703 {
		t.Fatalf("assembled sample mismatch: %+v", in.Sample)
	}
	if len(a.pending) != 0 || len(a.order) != 0 {
		t.Fatalf("completed sample left state: pending=%d order=%d", len(a.pending), len(a.order))
	}

	// Pre-fused 13-wide channel and the frame channel pass straight through.
	if in, ok := a.push(r(8, "imu", imu.FeatureDim), at); !ok || in.Sample == nil || in.Sample.Gyro[0] != 803 {
		t.Fatalf("imu fast path: %+v ok=%v", in, ok)
	}
	if in, ok := a.push(r(9, "frame", 16), at); !ok || in.Frame == nil || len(in.Frame) != 16 {
		t.Fatalf("frame path: %+v ok=%v", in, ok)
	}

	// Unknown channels and wrong arities are ignored, counted.
	before := mReadingsIgnored.Value()
	if _, ok := a.push(r(10, "thermometer", 1), at); ok {
		t.Fatal("unknown sensor produced an input")
	}
	if _, ok := a.push(r(11, "accel", 2), at); ok {
		t.Fatal("wrong-arity accel produced an input")
	}
	if mReadingsIgnored.Value()-before != 2 {
		t.Fatal("ignored readings not counted")
	}

	// The pending set is bounded: flooding partials evicts oldest, counted.
	dropBefore := mPartialDropped.Value()
	for ts := int64(100); ts < 100+int64(maxPartial)+10; ts++ {
		a.push(r(ts, "accel", 3), at)
	}
	if len(a.pending) > maxPartial {
		t.Fatalf("pending set grew to %d, bound is %d", len(a.pending), maxPartial)
	}
	if mPartialDropped.Value()-dropBefore != 10 {
		t.Fatalf("evictions counted %d, want 10", mPartialDropped.Value()-dropBefore)
	}
}

// TestPipelineAlertsEndToEnd runs scripted classifications through a real
// pipeline and asserts transitions strictly alternate (no duplicate raise).
func TestPipelineAlertsEndToEnd(t *testing.T) {
	var script []*core.Classification
	for i := 0; i < 5; i++ {
		script = append(script, cls(0.9))
	}
	for i := 0; i < 5; i++ {
		script = append(script, cls(0.1))
	}
	for i := 0; i < 5; i++ {
		script = append(script, cls(0.9))
	}
	var idx atomic.Int64
	tk := funcTicker{fn: func(*imu.Sample, []float64, bool) (*core.Classification, bool, error) {
		i := idx.Add(1) - 1
		if int(i) < len(script) {
			return script[i], false, nil
		}
		return nil, false, nil
	}}
	var mu sync.Mutex
	var events []AlertEvent
	p, err := NewPipeline("a", Config{
		QueueCap: 32, StallTimeout: time.Hour,
		Alert: AlertConfig{NormalClass: 0, Enter: 0.6, Exit: 0.4, Dwell: 0},
		OnAlert: func(_ string, ev AlertEvent, _ *core.Classification) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}, factoryOf(tk))
	if err != nil {
		t.Fatal(err)
	}
	for i := range script {
		if !p.Offer(sampleInput(int64(i))) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	waitFor(t, "script consumed", func() bool { return p.Stats().Decisions >= int64(len(script)) })
	p.Shutdown()

	mu.Lock()
	defer mu.Unlock()
	want := []AlertEvent{AlertRaised, AlertCleared, AlertRaised}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("alert transitions = %v, want %v", events, want)
	}
	s := p.Stats()
	if s.AlertsRaised != 2 || s.AlertsCleared != 1 {
		t.Fatalf("alert counters = %+v", s)
	}
}

func TestConfigValidation(t *testing.T) {
	tkf := factoryOf(funcTicker{fn: func(*imu.Sample, []float64, bool) (*core.Classification, bool, error) {
		return nil, false, nil
	}})
	bad := []Config{
		{QueueCap: 0},
		{QueueCap: -3},
		{QueueCap: 8, FrameSkipMax: -1},
		{QueueCap: 8, EngageDepth: 2, ReleaseDepth: 5},
		{QueueCap: 8, EngageDepth: 20, ReleaseDepth: 1},
		{QueueCap: 8, Alert: AlertConfig{NormalClass: -1}},
		{QueueCap: 8, Alert: AlertConfig{Enter: 0.3, Exit: 0.5}},
		{QueueCap: 8, Alert: AlertConfig{Dwell: -time.Second}},
	}
	for i, cfg := range bad {
		if _, err := NewPipeline("a", cfg, tkf); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		if _, err := NewMux(cfg, tkf); err == nil {
			t.Errorf("mux config %d accepted: %+v", i, cfg)
		}
	}
	p, err := NewPipeline("a", Config{QueueCap: 8}, tkf)
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	p.Shutdown()
	if _, err := NewPipeline("a", Config{QueueCap: 8}, nil); err == nil {
		t.Error("nil factory accepted")
	}
}
