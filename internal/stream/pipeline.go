// Package stream is the per-agent streaming classification pipeline: a
// bounded classify work queue fed by the collection controller, drained by a
// worker that buffers each agent's samples into windows and classifies them
// through the engine's stages, with
// credit-based backpressure to the agent's spill buffer, frame-skip
// degradation under load, the hysteretic alert state machine (EvaluateAlerts
// replays recorded sessions through the same Alerter), and a watchdog that
// restarts a stalled stage.
//
// The robustness contract: when input outruns classification, memory stays
// bounded (queue at cap, spill at cap, assembler at cap — everything else
// sheds oldest-first or newest-at-the-valve) and every loss is counted in
// telemetry rather than silent.
package stream

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

// Ticker consumes one classify input and returns a Classification when an
// IMU window completes (nil otherwise). skipFrame asks the implementation to
// reuse its previous CNN distribution instead of running the CNN; skipped
// reports whether it actually did (a ticker with no previous distribution
// must classify the frame regardless). Implementations own their recurrent
// state; the pipeline creates a fresh Ticker when the watchdog restarts a
// wedged stage, so in-flight window state is reset on restart — the
// documented cost of recovering a stalled worker.
type Ticker interface {
	Tick(sample *imu.Sample, frame []float64, skipFrame bool) (cls *core.Classification, skipped bool, err error)
}

// TickerFactory builds a fresh Ticker: once at pipeline start and again on
// every watchdog restart.
type TickerFactory func() (Ticker, error)

// Config parameterizes one agent pipeline (and, via Mux, all of them).
type Config struct {
	// QueueCap bounds the classify work queue. Admission past the cap sheds
	// the input, counted in darnet_stream_readings_shed_total.
	QueueCap int
	// FrameSkipMax is the maximum consecutive frames that may reuse the last
	// CNN distribution while frame skipping is engaged: every
	// (FrameSkipMax+1)-th frame is classified for real. 0 disables skipping.
	FrameSkipMax int
	// EngageDepth and ReleaseDepth are the queue-depth hysteresis band for
	// frame skipping: skipping engages at depth ≥ EngageDepth and releases
	// at depth ≤ ReleaseDepth. Defaults: 3·cap/4 and cap/4.
	EngageDepth  int
	ReleaseDepth int
	// Alert parameterizes the hysteretic alert state machine.
	Alert AlertConfig
	// StallTimeout is how long the stage may make no progress (while work is
	// queued or a tick is in flight) before the watchdog restarts it.
	// Default 5s.
	StallTimeout time.Duration
	// WatchdogPoll is the stall-check interval. Default StallTimeout/4.
	WatchdogPoll time.Duration
	// Now injects a clock for the alert FSM and watchdog (tests); defaults
	// to time.Now.
	Now func() time.Time
	// OnAlert, when non-nil, receives every alert transition with the
	// classification that caused it. Called from the worker goroutine.
	OnAlert func(agentID string, ev AlertEvent, cls *core.Classification)
	// OnDecision, when non-nil, receives every completed-window
	// classification. Called from the worker goroutine.
	OnDecision func(agentID string, cls *core.Classification)
}

func (c *Config) fillDefaults() {
	if c.EngageDepth == 0 {
		c.EngageDepth = max(1, 3*c.QueueCap/4)
	}
	if c.ReleaseDepth == 0 {
		c.ReleaseDepth = c.QueueCap / 4
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 5 * time.Second
	}
	if c.WatchdogPoll == 0 {
		c.WatchdogPoll = c.StallTimeout / 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	c.Alert.fillDefaults()
}

func (c *Config) validate() error {
	if c.QueueCap < 1 {
		return fmt.Errorf("stream: queue capacity must be >= 1, got %d", c.QueueCap)
	}
	if c.FrameSkipMax < 0 {
		return fmt.Errorf("stream: negative frame-skip max %d", c.FrameSkipMax)
	}
	if c.ReleaseDepth >= c.EngageDepth {
		return fmt.Errorf("stream: frame-skip release depth %d must be below engage depth %d (hysteresis band)", c.ReleaseDepth, c.EngageDepth)
	}
	if c.EngageDepth > c.QueueCap {
		return fmt.Errorf("stream: engage depth %d exceeds queue capacity %d", c.EngageDepth, c.QueueCap)
	}
	if c.StallTimeout < 0 || c.WatchdogPoll < 0 {
		return fmt.Errorf("stream: negative watchdog timing")
	}
	return c.Alert.validate()
}

// Stats is a point-in-time snapshot of one pipeline's counters, the
// bounded-memory evidence the saturation tests and the stream benchmark
// assert over.
type Stats struct {
	Enqueued      int64 // inputs admitted to the queue
	ShedReadings  int64 // readings dropped at the full queue
	Depth         int64 // current queue depth
	MaxDepth      int64 // highest observed queue depth (≤ QueueCap always)
	Frames        int64 // frames reaching the classify stage
	FramesSkipped int64 // frames that reused the previous CNN distribution
	Decisions     int64 // completed-window classifications
	TickErrors    int64
	Restarts      int64 // watchdog stage restarts
	AlertsRaised  int64
	AlertsCleared int64
}

// Pipeline is the classify stage for one agent: a bounded queue, a single
// worker goroutine (the recurrent state is inherently sequential), and a
// watchdog. Offer may be called from multiple producers; everything else the
// pipeline owns.
//
// The depth counter is the queue's occupancy ledger: darnet-lint's qbound
// analyzer verifies every increment is dominated by a capacity check and
// every CAS admission is committed or released on all paths.
//
//lint:bounded depth
type Pipeline struct {
	agentID   string
	cfg       Config
	newTicker TickerFactory

	queue    chan Input
	stop     chan struct{}
	stopOnce sync.Once
	stopped  atomic.Bool
	wg       sync.WaitGroup

	// gen is the live worker generation: a worker that wakes up superseded
	// re-offers its item and exits, so a wedged-then-recovered goroutine can
	// never interleave with its replacement.
	gen atomic.Int64

	depth        atomic.Int64
	maxDepth     atomic.Int64
	busySince    atomic.Int64 // unix nanos of the in-flight tick's start, 0 when idle
	lastProgress atomic.Int64 // unix nanos of the last completed tick
	lastRestart  atomic.Int64

	skipping atomic.Bool // frame-skip hysteresis state (read by Health)

	amu sync.Mutex // guards asm (reconnecting agents can race two producers)
	asm *assembler

	alertMu sync.Mutex // guards alert across worker generations
	alert   Alerter

	enqueued      atomic.Int64
	shedReadings  atomic.Int64
	frames        atomic.Int64
	framesSkipped atomic.Int64
	decisions     atomic.Int64
	tickErrors    atomic.Int64
	restarts      atomic.Int64
	alertsRaised  atomic.Int64
	alertsCleared atomic.Int64
}

// NewPipeline builds and starts the pipeline for one agent: the worker and
// watchdog goroutines run until Shutdown.
func NewPipeline(agentID string, cfg Config, f TickerFactory) (*Pipeline, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("stream: nil ticker factory")
	}
	tk, err := f()
	if err != nil {
		return nil, fmt.Errorf("stream: build ticker: %w", err)
	}
	p := &Pipeline{
		agentID:   agentID,
		cfg:       cfg,
		newTicker: f,
		queue:     make(chan Input, cfg.QueueCap),
		stop:      make(chan struct{}),
		asm:       newAssembler(),
		alert:     Alerter{cfg: cfg.Alert},
	}
	p.lastProgress.Store(cfg.Now().UnixNano())
	p.wg.Add(2)
	go p.worker(p.gen.Load(), tk)
	go p.watchdog()
	return p, nil
}

// OfferReadings assembles a batch of wire readings into classify inputs and
// admits them, returning how many readings were accepted (enqueued, absorbed
// into a partial sample, or ignored as unclassifiable). The difference from
// len(readings) was shed at the full queue. The trace context (zero when
// absent) rides each admitted input so the classify tick joins the batch's
// distributed trace.
func (p *Pipeline) OfferReadings(readings []wire.Reading, trace telemetry.SpanContext) (accepted int) {
	at := p.cfg.Now()
	p.amu.Lock()
	defer p.amu.Unlock()
	for _, r := range readings {
		in, ok := p.asm.push(r, at)
		if !ok {
			accepted++ // partial or ignored: nothing queued, nothing shed
			continue
		}
		in.Trace = trace
		if p.Offer(in) {
			accepted += in.Weight
		}
	}
	return accepted
}

// Offer admits one input to the classify queue, shedding it (counted) when
// the queue is at capacity or the pipeline has shut down. Safe for multiple
// producers; the depth counter, incremented before the send and decremented
// after the receive, guarantees MaxDepth never exceeds QueueCap.
func (p *Pipeline) Offer(in Input) bool {
	if p.stopped.Load() {
		p.shed(in)
		return false
	}
	cap64 := int64(p.cfg.QueueCap)
	for {
		d := p.depth.Load()
		if d >= cap64 {
			p.shed(in)
			return false
		}
		if p.depth.CompareAndSwap(d, d+1) {
			for {
				m := p.maxDepth.Load()
				if d+1 <= m || p.maxDepth.CompareAndSwap(m, d+1) {
					break
				}
			}
			break
		}
	}
	select {
	case p.queue <- in:
		gQueueDepth.Add(1)
		p.enqueued.Add(1)
		return true
	default:
		// Unreachable given the depth accounting; kept as defense so a bug
		// degrades to a counted shed instead of a blocked producer.
		p.depth.Add(-1)
		p.shed(in)
		return false
	}
}

func (p *Pipeline) shed(in Input) {
	p.shedReadings.Add(int64(in.Weight))
	mReadingsShed.Add(int64(in.Weight))
}

// Credits returns the current admission grant: free queue slots.
func (p *Pipeline) Credits() uint32 {
	if p.stopped.Load() {
		return 0
	}
	free := int64(p.cfg.QueueCap) - p.depth.Load()
	if free < 0 {
		free = 0
	}
	return uint32(free)
}

// worker drains the queue for one generation. The recurrent state (the
// Ticker) is generation-owned: a superseded worker never ticks again, it
// re-offers the input it dequeued and exits. The goroutine runs under pprof
// labels (agent ID, pipeline stage) so /debug/pprof/goroutine profiles are
// attributable per agent.
func (p *Pipeline) worker(gen int64, tk Ticker) {
	defer p.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("darnet_agent", p.agentID, "darnet_stage", "stream_worker"), func(context.Context) {
		p.drain(gen, tk)
	})
}

func (p *Pipeline) drain(gen int64, tk Ticker) {
	skipStreak := 0
	for {
		select {
		case <-p.stop:
			return
		case in := <-p.queue:
			p.depth.Add(-1)
			gQueueDepth.Add(-1)
			if p.gen.Load() != gen {
				mStaleReoffers.Inc()
				p.Offer(in)
				return
			}
			p.busySince.Store(p.cfg.Now().UnixNano())
			p.runTick(tk, in, &skipStreak)
			p.busySince.Store(0)
			p.lastProgress.Store(p.cfg.Now().UnixNano())
		}
	}
}

// runTick classifies one input, applying frame-skip hysteresis, feeding the
// alert state machine, and recovering panics so one poisoned input cannot
// kill the stage (the watchdog would revive it, but without losing the
// queue's other items to the restart).
func (p *Pipeline) runTick(tk Ticker, in Input, skipStreak *int) {
	defer func() {
		if r := recover(); r != nil {
			mTickPanics.Inc()
			p.tickErrors.Add(1)
		}
	}()

	// Join the batch's distributed trace when the input carries a context —
	// the dwell between admission and this dequeue becomes an explicit
	// segment. Legacy inputs (zero context) get no tick span at all, so they
	// neither consume the local sampling budget nor clutter /tracez.
	var root *telemetry.Span
	if in.Trace.Valid() {
		root = telemetry.DefaultTracer.JoinRemote("darnet_stream_tick", in.Trace)
		root.Segment("darnet_stage_queue_dwell", in.At, p.cfg.Now().Sub(in.At))
	}
	defer root.End()

	// Frame-skip hysteresis on the queue depth observed at processing time.
	d := p.depth.Load()
	if p.skipping.Load() {
		if d <= int64(p.cfg.ReleaseDepth) {
			p.skipping.Store(false)
			gSkipping.Add(-1)
		}
	} else if p.cfg.FrameSkipMax > 0 && d >= int64(p.cfg.EngageDepth) {
		p.skipping.Store(true)
		gSkipping.Add(1)
	}
	skip := false
	if in.Frame != nil {
		p.frames.Add(1)
		mFrames.Inc()
		if p.skipping.Load() && *skipStreak < p.cfg.FrameSkipMax {
			skip = true
		}
	}

	clsSp := root.StartChild("darnet_stage_classify_tick")
	cls, skipped, err := tk.Tick(in.Sample, in.Frame, skip)
	clsSp.End()
	if in.Frame != nil {
		if skipped {
			*skipStreak++
			p.framesSkipped.Add(1)
			mFramesSkipped.Inc()
		} else {
			*skipStreak = 0
		}
	}
	if err != nil {
		p.tickErrors.Add(1)
		mTickErrors.Inc()
		return
	}
	if cls == nil {
		return
	}

	now := p.cfg.Now()
	p.decisions.Add(1)
	mDecisions.Inc()
	hAlertLatency.Observe(now.Sub(in.At).Seconds())

	alertSp := root.StartChild("darnet_stage_alert")
	p.alertMu.Lock()
	ev := p.alert.Observe(now, cls)
	p.alertMu.Unlock()
	switch ev {
	case AlertRaised:
		p.alertsRaised.Add(1)
		mAlertsRaised.Inc()
		gAlertActive.Add(1)
	case AlertCleared:
		p.alertsCleared.Add(1)
		mAlertsCleared.Inc()
		gAlertActive.Add(-1)
	}
	if ev != AlertNone && p.cfg.OnAlert != nil {
		p.cfg.OnAlert(p.agentID, ev, cls)
	}
	if p.cfg.OnDecision != nil {
		p.cfg.OnDecision(p.agentID, cls)
	}
	alertSp.End()
}

// watchdog restarts the worker when the stage stops making progress: either
// a tick has been in flight past StallTimeout (wedged worker) or work is
// queued and nothing has completed within the deadline (lost worker).
func (p *Pipeline) watchdog() {
	defer p.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("darnet_agent", p.agentID, "darnet_stage", "stream_watchdog"), func(context.Context) {
		t := time.NewTicker(p.cfg.WatchdogPoll)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.checkStall()
			}
		}
	})
}

func (p *Pipeline) checkStall() {
	now := p.cfg.Now().UnixNano()
	deadline := p.cfg.StallTimeout.Nanoseconds()
	busy := p.busySince.Load()
	wedged := busy != 0 && now-busy > deadline
	starved := p.depth.Load() > 0 && now-p.lastProgress.Load() > deadline && busy == 0
	if !wedged && !starved {
		return
	}
	tk, err := p.newTicker()
	if err != nil {
		p.tickErrors.Add(1)
		mTickErrors.Inc()
		return // retry on the next poll
	}
	gen := p.gen.Add(1) // supersede the wedged worker; it exits on next wake
	p.busySince.Store(0)
	p.lastProgress.Store(now)
	p.lastRestart.Store(now)
	p.restarts.Add(1)
	mWatchdogRestarts.Inc()
	p.wg.Add(1)
	go p.worker(gen, tk)
}

// Skipping reports whether frame-skip degradation is currently engaged.
func (p *Pipeline) Skipping() bool { return p.skipping.Load() }

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Enqueued:      p.enqueued.Load(),
		ShedReadings:  p.shedReadings.Load(),
		Depth:         p.depth.Load(),
		MaxDepth:      p.maxDepth.Load(),
		Frames:        p.frames.Load(),
		FramesSkipped: p.framesSkipped.Load(),
		Decisions:     p.decisions.Load(),
		TickErrors:    p.tickErrors.Load(),
		Restarts:      p.restarts.Load(),
		AlertsRaised:  p.alertsRaised.Load(),
		AlertsCleared: p.alertsCleared.Load(),
	}
}

// Shutdown stops the pipeline and reaps every goroutine it ever spawned —
// the live worker, the watchdog, and any superseded worker still draining.
// Idempotent; blocks until all have exited.
func (p *Pipeline) Shutdown() {
	p.stopOnce.Do(func() {
		p.stopped.Store(true)
		close(p.stop)
	})
	p.wg.Wait()
}
