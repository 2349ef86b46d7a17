package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/stream"
)

// Stream workload geometry and rates. Readings follow the paper's geometry,
// time-compressed: one poll carries one camera frame and four IMU samples
// (25 ms apart in sensor time), and a window is samplesPerWindow samples.
const (
	samplesPerPoll   = 4
	samplesPerWindow = imu.WindowSize
	pollsPerWindow   = samplesPerWindow / samplesPerPoll
	pollStepMS       = samplesPerPoll * 25 // sensor time per poll

	// darnetd's streaming defaults.
	streamQueueCap = 64
	frameSkipMax   = 4
	alertDwell     = 2 * time.Second

	// pacedWindowRate is a quarter of the stream path's capacity without
	// frame skipping on the seed, so the classify queue stays near empty.
	pacedWindowRate = 18.0
	// overloadWindowRate is about four times the stream path's capacity on
	// the seed (with frame skipping engaged). It is a constant: the offered
	// load must not adapt to the program under test.
	overloadWindowRate = 600.0
	// overloadRound is the schedule length of one overload round. Each
	// round runs against a fresh controller, so the frames the controller
	// stores stay bounded whatever the program's speed.
	overloadRound = 1.0

	// minSendGap is the agent's shortest transmission period: with readings
	// waiting it flushes (or heartbeats, without credits) at most this
	// often. The paced schedule polls less often, so there every poll is
	// flushed as soon as it is taken.
	minSendGap = 2 * time.Millisecond

	drainTimeout = 10 * time.Second
)

// streamSpec is one stream workload.
type streamSpec struct {
	windowRate float64 // windows offered per second
	round      float64 // schedule seconds per round; 0 runs one round
	paced      bool    // exact one-decision-per-window checks apply
}

func runStreamPaced(cfg *runConfig) (*outcome, error) {
	return runStream(cfg, streamSpec{windowRate: pacedWindowRate, paced: true})
}

func runStreamOverload(cfg *runConfig) (*outcome, error) {
	return runStream(cfg, streamSpec{windowRate: overloadWindowRate, round: overloadRound})
}

// streamRun is the state of one stream workload run.
type streamRun struct {
	cfg   *runConfig
	spec  streamSpec
	out   *outcome
	rec   *recorder
	eng   *core.Engine
	pairs []pair
	envs  int

	// Per-round state, written by the pipeline's worker goroutine.
	mu        sync.Mutex
	ticker    atomic.Pointer[markTicker]
	decisions []decision

	// Traced-round totals for traceLayers.
	tracedRounds      int
	readings, batches int
	busyBefore        time.Duration
}

// decision is one OnDecision callback.
type decision struct {
	poll int // index of the poll that carried the window's last sample
	at   time.Time
	cls  *core.Classification
}

// streamEnv is a controller with the stream mux installed and one connected
// agent.
type streamEnv struct {
	*env
	mux   *stream.Mux
	agent *collect.Agent
	clock *collect.ManualTime
	poll  int // index of the poll the sensors read
}

// runStream runs one agent on a fixed open-loop schedule through the
// controller, durability, the stream mux and the engine ticker. One
// operation is one decision.
func runStream(cfg *runConfig, spec streamSpec) (*outcome, error) {
	sr := &streamRun{cfg: cfg, spec: spec, out: &outcome{}}
	if cfg.trace {
		sr.rec = newRecorder()
		sr.out.layers = make(map[string]float64)
	}
	var se *streamEnv
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		eng, pairs, err := buildEngine(cfg.seed)
		if err != nil {
			return nil, err
		}
		sr.eng, sr.pairs = eng, pairs
		next, err := sr.open()
		if err != nil {
			return nil, err
		}
		sr.out.setup = append(sr.out.setup, time.Since(start).Seconds())
		if se != nil {
			if err := se.close(); err != nil {
				return nil, err
			}
		}
		se = next
	}

	schedule := cfg.seconds
	if spec.round > 0 {
		schedule = spec.round
	}
	rounds := max(1, int(math.Round(cfg.seconds/schedule)))
	traceFrom := rounds
	if cfg.trace {
		rounds = max(2, rounds)
		traceFrom = rounds / 2
		schedule = math.Min(schedule, cfg.seconds/2)
	}
	polls := int(schedule*spec.windowRate) * pollsPerWindow
	var untraced, traced roundStats
	var perRound []float64
	var r0 runtimeSample
	for r := 0; r < rounds; r++ {
		if r > 0 {
			var err error
			if se, err = sr.open(); err != nil {
				return nil, err
			}
		}
		settle()
		if r == traceFrom {
			r0 = readRuntime()
		}
		st, err := sr.round(se, polls, r >= traceFrom)
		if err = errors.Join(err, se.close()); err != nil {
			return nil, err
		}
		if r >= traceFrom {
			traced.add(st)
		} else {
			untraced.add(st)
			perRound = append(perRound, st.throughput())
		}
	}
	// Throughput is the median of the rounds', so one round hit by host
	// noise does not move it.
	sr.out.throughput = median(perRound)
	if cfg.trace {
		sr.traceLayers(r0, untraced, traced)
		if err := sr.rec.write(cfg); err != nil {
			return nil, err
		}
	}
	return sr.out, nil
}

// open starts a controller on an empty data directory, installs the stream
// mux as its sink and connects the agent.
func (sr *streamRun) open() (*streamEnv, error) {
	dir := filepath.Join(sr.cfg.dir, fmt.Sprintf("stream-%d", sr.envs))
	sr.envs++
	clock := collect.NewManualTime(0)
	e, _, _, err := openEnv(dir, sr.rec, clock.Now)
	if err != nil {
		return nil, err
	}
	e.dir = dir
	se := &streamEnv{env: e, clock: clock}
	factory := stream.EngineTickerFactory(sr.eng)
	se.mux, err = stream.NewMux(stream.Config{
		QueueCap:     streamQueueCap,
		FrameSkipMax: frameSkipMax,
		Alert:        stream.AlertConfig{Dwell: alertDwell},
		OnDecision:   sr.onDecision,
	}, func() (stream.Ticker, error) {
		tk, err := factory()
		if err != nil {
			return nil, err
		}
		mt := &markTicker{inner: tk, rec: sr.rec}
		sr.ticker.Store(mt)
		return mt, nil
	})
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	if sr.rec != nil {
		e.ctrl.SetStreamSink(&tapSink{inner: se.mux, rec: sr.rec})
	} else {
		e.ctrl.SetStreamSink(se.mux)
	}
	_, conn, err := e.dial()
	if err != nil {
		return nil, errors.Join(err, se.close())
	}
	sensors := []collect.Sensor{collect.FrameSensor(func() []float64 { return sr.frame(se.poll) })}
	for j := 0; j < samplesPerPoll; j++ {
		sensors = append(sensors, collect.SensorFunc{SensorName: "imu", ReadFunc: func() []float64 {
			return sr.sample(se.poll*samplesPerPoll + j).Features()
		}})
	}
	se.agent, err = collect.NewAgent(collect.AgentConfig{ID: "stream", Modality: "imu+cam", PollPeriodMS: pollStepMS, AckTimeout: ackTimeout},
		collect.NewDriftClock(clock.Now, 0), sensors, conn)
	if err != nil {
		return nil, errors.Join(err, se.close())
	}
	if err := se.agent.Hello(); err != nil {
		return nil, errors.Join(err, se.close())
	}
	return se, nil
}

func (se *streamEnv) close() error {
	se.mux.Shutdown()
	return se.env.close()
}

// window returns the held-out pair window w is built from.
func (sr *streamRun) window(w int) pair { return sr.pairs[w%len(sr.pairs)] }

// frame is the camera frame of poll k: every poll of a window carries the
// frame of the window's pair.
func (sr *streamRun) frame(k int) []float64 { return sr.window(k / pollsPerWindow).frame }

// sample is IMU sample i of the stream.
func (sr *streamRun) sample(i int) imu.Sample {
	return sr.window(i / samplesPerWindow).window.Samples[i%samplesPerWindow]
}

// onDecision runs on the pipeline's worker goroutine right after the Tick
// that completed a window, so the ticker's mark names that window's last
// sample.
func (sr *streamRun) onDecision(_ string, cls *core.Classification) {
	at := time.Now()
	poll := int(sr.ticker.Load().lastTS/pollStepMS) - 1
	sr.mu.Lock()
	sr.decisions = append(sr.decisions, decision{poll: poll, at: at, cls: cls})
	sr.mu.Unlock()
}

// roundStats is what one round measured.
type roundStats struct {
	decisions int
	elapsed   time.Duration
}

func (r *roundStats) add(o roundStats) {
	r.decisions += o.decisions
	r.elapsed += o.elapsed
}

func (r roundStats) throughput() float64 { return share(float64(r.decisions), r.elapsed.Seconds()) }

// round runs the open-loop schedule of polls, drains the pipeline and
// checks the decisions.
func (sr *streamRun) round(se *streamEnv, polls int, traced bool) (roundStats, error) {
	period := time.Duration(float64(time.Second) / (sr.spec.windowRate * pollsPerWindow))
	sr.mu.Lock()
	sr.decisions = sr.decisions[:0]
	sr.mu.Unlock()

	var rec *recorder
	var hs *heapSampler
	var depth *depthSampler
	if traced {
		rec = sr.rec
		rec.on.Store(true)
		depth = startDepthSampler(se.mux)
	} else {
		hs = startHeapSampler()
	}
	sched := &schedule{start: time.Now().Add(time.Millisecond), period: period, n: polls}
	flushes, deferred := 0, 0
	var lastSend time.Time
	for !sched.done() {
		now := time.Now()
		from, to := sched.take(now)
		for k := from; k < to; k++ {
			se.poll = k
			se.clock.Advance(pollStepMS)
			s := time.Now()
			se.agent.Poll()
			rec.observe("collect.poll", time.Since(s))
		}
		// The agent transmits at most every minSendGap: a flush, or a
		// heartbeat while the controller grants no credits.
		if se.agent.Buffered() > 0 && now.Sub(lastSend) >= minSendGap {
			lastSend = now
			if se.agent.ShouldDefer() {
				deferred++
				if err := se.agent.Heartbeat(); err != nil {
					return roundStats{}, err
				}
				continue
			}
			flushes++
			s := time.Now()
			err := se.agent.Flush()
			rec.span("collect.flush", uint64(to-1), 0, s, time.Now())
			if err != nil {
				return roundStats{}, err
			}
			continue
		}
		wake := sched.due(sched.next)
		if se.agent.Buffered() > 0 && lastSend.Add(minSendGap).Before(wake) {
			wake = lastSend.Add(minSendGap)
		}
		time.Sleep(time.Until(wake))
	}
	if err := sr.drain(se); err != nil {
		return roundStats{}, err
	}
	var depthMean float64
	if traced {
		depthMean = depth.finish()
		rec.on.Store(false)
	} else {
		sr.out.heapPeaks = append(sr.out.heapPeaks, slices.Max(hs.finish()))
	}

	sr.mu.Lock()
	decs := append([]decision(nil), sr.decisions...)
	sr.mu.Unlock()
	if len(decs) == 0 {
		return roundStats{}, errors.New("the round produced no decision")
	}
	st := roundStats{decisions: len(decs), elapsed: decs[len(decs)-1].at.Sub(sched.start)}
	if !traced {
		for _, d := range decs {
			sr.out.lat.add(sched.latency(d.poll, d.at))
		}
	}
	sr.check(decs, polls)
	if traced {
		sr.roundLayers(se, st, polls, flushes, deferred, sched.meanLate(), depthMean)
	}
	if errs := se.serveErrors(); len(errs) > 0 {
		return roundStats{}, fmt.Errorf("controller: %w", errors.Join(errs...))
	}
	return st, nil
}

// drain flushes what the agent still holds and waits until the pipeline
// has worked off its queue.
func (sr *streamRun) drain(se *streamEnv) error {
	deadline := time.Now().Add(drainTimeout)
	for se.agent.Buffered() > 0 {
		if time.Now().After(deadline) {
			return errors.New("the agent could not hand off its readings")
		}
		var err error
		if se.agent.ShouldDefer() {
			err = se.agent.Heartbeat()
			time.Sleep(time.Millisecond)
		} else {
			err = se.agent.Flush()
		}
		if err != nil {
			return err
		}
	}
	for {
		p := se.mux.Pipeline("stream")
		if p == nil {
			return errors.New("no pipeline was created")
		}
		before := p.Stats().Decisions
		time.Sleep(20 * time.Millisecond)
		st := p.Stats()
		if st.Depth == 0 && st.Decisions == before {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("the pipeline did not drain")
		}
	}
}

// check counts the round's decisions against the attempts: every decision
// must be a valid posterior; on the paced schedule there must be exactly
// one per window sent, each reproducing ClassifyCtx on its (frame, window).
func (sr *streamRun) check(decs []decision, polls int) {
	out := sr.out
	for _, d := range decs {
		out.attempted++
		if why := checkDistribution(d.cls.Probs, d.cls.Class); why != "" {
			out.failed++
			logf("stream: decision at poll %d: %s", d.poll, why)
		}
	}
	if !sr.spec.paced {
		return
	}
	windows := polls / pollsPerWindow
	out.attempted++
	if len(decs) != windows {
		out.failed++
		logf("stream: %d decisions for %d windows sent", len(decs), windows)
		return
	}
	for w, d := range decs {
		if d.poll != (w+1)*pollsPerWindow-1 {
			out.failed++
			logf("stream: decision %d closed at poll %d, want %d", w, d.poll, (w+1)*pollsPerWindow-1)
			continue
		}
		p := sr.window(w)
		want, err := sr.eng.ClassifyCtx(context.Background(), p.frame, p.window)
		if err != nil || want.Class != d.cls.Class || !sameProbs(want.Probs, d.cls.Probs, 1e-9) {
			out.failed++
			logf("stream: decision %d does not match ClassifyCtx on its (frame, window) (err %v)", w, err)
		}
	}
}

// depthSampler samples the mux's queue depth while it runs.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  int64
	n    int64
}

func startDepthSampler(mux *stream.Mux) *depthSampler {
	d := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.sum += mux.Stats().Depth
				d.n++
			}
		}
	}()
	return d
}

// finish stops the sampler and returns the mean depth.
func (d *depthSampler) finish() float64 {
	close(d.stop)
	<-d.done
	return share(float64(d.sum), float64(d.n))
}

// roundLayers accumulates the traced round's per-layer ratios and counts.
// Ratios are summed per round and averaged over the traced rounds by
// traceLayers.
func (sr *streamRun) roundLayers(se *streamEnv, st roundStats, polls, flushes, deferred int, late time.Duration, depthMean float64) {
	l := sr.out.layers
	ms := se.mux.Stats()
	cs, _ := se.ctrl.AgentStats("stream")
	generated := float64(polls * (1 + samplesPerPoll))
	l["stream.queue_depth_mean"] += depthMean
	// Little's law: the mean wait in the queue is its mean depth over the
	// rate inputs entered it.
	l["stream.queue_wait_ms"] += 1000 * share(depthMean, float64(ms.Enqueued)/st.elapsed.Seconds())
	l["stream.shed_share"] += share(float64(ms.ShedReadings), float64(cs.Readings))
	l["stream.frame_skip_share"] += share(float64(ms.FramesSkipped), float64(ms.Frames))
	l["collect.deferred_flush_share"] += share(float64(deferred), float64(flushes+deferred))
	l["collect.spill_drop_share"] += share(float64(se.agent.SpillDropped()), generated)
	l["loadgen.late_ms"] += float64(late) / float64(time.Millisecond)
	l["tsdb.points_stored"] += float64(storedPoints(se.db, "stream/"))
	busy := sr.rec.sum("stream.tick_frame") + sr.rec.sum("stream.tick_sample") + sr.rec.sum("stream.tick_window")
	l["stream.busy_share"] += share(float64(busy-sr.busyBefore), float64(st.elapsed))
	sr.busyBefore = busy
	sr.readings += cs.Readings
	sr.batches += cs.Batches
	sr.tracedRounds++
}

// traceLayers turns the traced rounds' totals into the per-layer metrics.
func (sr *streamRun) traceLayers(r0 runtimeSample, untraced, traced roundStats) {
	rec, l := sr.rec, sr.out.layers
	for _, k := range []string{"stream.queue_depth_mean", "stream.queue_wait_ms", "stream.shed_share",
		"stream.frame_skip_share", "collect.deferred_flush_share", "collect.spill_drop_share",
		"loadgen.late_ms", "stream.busy_share"} {
		l[k] /= float64(sr.tracedRounds)
	}
	runtimeLayers(l, r0, readRuntime(), traced.decisions)
	l["trace.overhead_share"] = 1 - traced.throughput()/untraced.throughput()
	l["stream.tick_frame_ms"] = rec.mean("stream.tick_frame", time.Millisecond)
	l["stream.tick_sample_us"] = rec.mean("stream.tick_sample", time.Microsecond)
	l["stream.tick_window_ms"] = rec.mean("stream.tick_window", time.Millisecond)
	l["stream.offer_us"] = rec.mean("stream.offer", time.Microsecond)
	l["collect.poll_us"] = rec.mean("collect.poll", time.Microsecond)
	l["collect.flush_ms"] = rec.mean("collect.flush", time.Millisecond)
	l["collect.serve_ms"] = rec.mean("collect.serve", time.Millisecond)
	batches, readings := float64(sr.batches), float64(sr.readings)
	l["wire.writes_per_batch"] = share(float64(rec.count("wire.batch_writes")), batches)
	l["wire.bytes_per_reading"] = share(float64(rec.count("wire.batch_bytes")), readings)
	l["durable.writes_per_batch"] = share(float64(rec.count("durable.wal_write")), batches)
	l["durable.bytes_per_reading"] = share(float64(rec.count("durable.wal_bytes")), readings)
	l["durable.write_us"] = rec.mean("durable.wal_write", time.Microsecond)
	l["durable.write_share"] = share(float64(rec.sum("durable.wal_write")), float64(rec.sum("collect.flush")))
	l["durable.fsync_ms"] = rec.mean("durable.wal_sync", time.Millisecond)
}
