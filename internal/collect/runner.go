package collect

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

// mReconnects counts successful agent reconnections after a transport
// failure — each one is a survived outage.
var mReconnects = telemetry.NewCounter("darnet_collect_reconnects_total", "agent reconnections completed after a transport failure")

// mDeferredFlushes counts flush ticks skipped because the controller's
// admission grant was exhausted — the agent heartbeats instead, both to stay
// inside the read deadline and to pick up a refreshed grant.
var mDeferredFlushes = telemetry.NewCounter("darnet_collect_flushes_deferred_total", "flush ticks deferred under zero backpressure credits")

// Dialer opens a fresh transport connection to the controller. Runners use
// it to reconnect after an outage; each call must return a new connection.
type Dialer func() (*wire.Conn, error)

// RunnerConfig configures a managed agent loop.
type RunnerConfig struct {
	// FlushEvery is the batch transmission cadence.
	FlushEvery time.Duration
	// OnPoll, when non-nil, runs before every sensor poll (e.g. advancing a
	// replay cursor).
	OnPoll func()
	// Dialer, when non-nil, turns transport failures into reconnect attempts
	// with exponential backoff instead of stopping the loop.
	Dialer Dialer
	// BackoffBase is the first reconnect delay (default 50 ms); each failed
	// attempt doubles it up to BackoffMax (default 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffJitter is the ± fraction of random spread applied to each delay
	// (default 0.2), decorrelating fleets of agents that lost the same
	// controller. Zero jitter must be asked for with a negative value.
	BackoffJitter float64
	// MaxAttempts bounds consecutive failed reconnect attempts before the
	// runner gives up and surfaces the error (default 8; negative means
	// retry until Shutdown).
	MaxAttempts int
	// Seed seeds the jitter source so chaos tests are reproducible; the
	// default 0 is a valid fixed seed.
	Seed int64
}

func (cfg *RunnerConfig) fillDefaults() {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.BackoffJitter == 0 {
		cfg.BackoffJitter = 0.2
	} else if cfg.BackoffJitter < 0 {
		cfg.BackoffJitter = 0
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
}

// Runner drives an agent in real time: it polls the sensors at the agent's
// configured period and flushes batches at the given cadence, on a managed
// goroutine that Shutdown stops and waits for. This is the deployment-mode
// counterpart of the manually-stepped loops the simulations use.
//
// With a Dialer configured the runner is fault tolerant: a failed flush
// enters a reconnect loop with exponential backoff plus jitter, polling (and
// spilling into the agent's bounded buffer) continues during the outage, and
// the unacked batch is retransmitted once the session resumes.
type Runner struct {
	agent *Agent
	cfg   RunnerConfig
	rng   *rand.Rand // owned by the loop goroutine

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu         sync.Mutex
	err        error
	reconnects int
	deferred   int
}

// StartRunnerConfig sends the agent's hello and starts the managed loop with
// full fault-tolerance configuration.
func StartRunnerConfig(agent *Agent, cfg RunnerConfig) (*Runner, error) {
	if agent == nil {
		return nil, fmt.Errorf("collect: runner needs an agent")
	}
	if cfg.FlushEvery <= 0 {
		return nil, fmt.Errorf("collect: flush cadence must be positive, got %v", cfg.FlushEvery)
	}
	cfg.fillDefaults()
	if err := agent.Hello(); err != nil {
		return nil, fmt.Errorf("collect: runner hello: %w", err)
	}
	r := &Runner{
		agent: agent,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

func (r *Runner) pollOnce() {
	if r.cfg.OnPoll != nil {
		r.cfg.OnPoll()
	}
	r.agent.Poll()
}

// flushOrHeartbeat transmits the backlog, or a liveness heartbeat when there
// is none, so an idle agent stays inside the controller's read deadline.
// When the controller's admission grant is exhausted the flush is deferred:
// the heartbeat's ack refreshes the grant, and meanwhile readings pool in
// the agent's bounded spill buffer (oldest shed first, counted) — the
// protocol's single backpressure valve.
func (r *Runner) flushOrHeartbeat() error {
	if r.agent.Buffered() == 0 {
		return r.agent.Heartbeat()
	}
	if r.agent.ShouldDefer() {
		mDeferredFlushes.Inc()
		r.mu.Lock()
		r.deferred++
		r.mu.Unlock()
		return r.agent.Heartbeat()
	}
	return r.agent.Flush()
}

func (r *Runner) loop() {
	defer close(r.done)
	poll := time.NewTicker(time.Duration(r.agent.PollPeriodMS) * time.Millisecond)
	defer poll.Stop()
	flush := time.NewTicker(r.cfg.FlushEvery)
	defer flush.Stop()
	for {
		select {
		case <-poll.C:
			r.pollOnce()
		case <-flush.C:
			if err := r.flushOrHeartbeat(); err != nil {
				if !r.recover(poll, err) {
					return
				}
			}
		case <-r.stop:
			r.setErr(r.agent.Flush())
			return
		}
	}
}

// recover runs the reconnect loop after a transport failure: exponential
// backoff with jitter between attempts, sensor polling continuing throughout
// (readings spill into the agent's bounded buffer), and the retained backlog
// flushed as soon as a dial plus re-hello succeeds. It returns false when
// the runner should stop — Shutdown was requested, or MaxAttempts
// consecutive attempts failed.
func (r *Runner) recover(poll *time.Ticker, cause error) bool {
	if r.cfg.Dialer == nil {
		r.setErr(cause)
		return false
	}
	attempt := 0
	backoff := time.NewTimer(r.backoffDelay(attempt))
	defer backoff.Stop()
	for {
		select {
		case <-poll.C:
			r.pollOnce()
		case <-r.stop:
			r.setErr(cause)
			return false
		case <-backoff.C:
			attempt++
			if r.attemptReconnect(&cause) {
				return true
			}
			if r.cfg.MaxAttempts > 0 && attempt >= r.cfg.MaxAttempts {
				r.setErr(fmt.Errorf("collect: gave up after %d reconnect attempts: %w", attempt, cause))
				return false
			}
			backoff.Reset(r.backoffDelay(attempt))
		}
	}
}

// attemptReconnect tries one dial + session resume + backlog flush,
// recording the failure in cause so the caller's give-up error names the
// most recent obstacle.
func (r *Runner) attemptReconnect(cause *error) bool {
	conn, err := r.cfg.Dialer()
	if err != nil {
		*cause = err
		return false
	}
	if err := r.agent.Reconnect(conn); err != nil {
		*cause = err
		return false
	}
	r.mu.Lock()
	r.reconnects++
	r.mu.Unlock()
	mReconnects.Inc()
	// Drain the backlog retained across the outage; a failure here re-enters
	// backoff with the new cause.
	if err := r.agent.Flush(); err != nil {
		*cause = err
		return false
	}
	return true
}

// backoffDelay returns the jittered exponential delay for the given attempt
// (0-based): base·2^attempt capped at max, spread by ±jitter.
func (r *Runner) backoffDelay(attempt int) time.Duration {
	d := r.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > r.cfg.BackoffMax {
		d = r.cfg.BackoffMax
	}
	if j := r.cfg.BackoffJitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*r.rng.Float64()-1)))
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

func (r *Runner) setErr(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// Shutdown signals the loop to stop, performs a final flush, waits for the
// goroutine to exit, and returns the first error the loop encountered. It is
// idempotent: concurrent and repeated calls are safe and all return the same
// error.
func (r *Runner) Shutdown() error {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Err returns the first error the loop encountered so far (nil while
// healthy). It is safe to call concurrently with the loop and with Shutdown.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Reconnects returns how many outages the runner has survived via a
// successful reconnect.
func (r *Runner) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// Deferred returns how many flush ticks were skipped under zero backpressure
// credits.
func (r *Runner) Deferred() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deferred
}
