// Command darnetd runs DarNet's collection middleware over TCP.
//
// Controller mode (default) accepts agent connections, aggregates readings
// into the time-series store, and acts as the clock-sync master:
//
//	darnetd -listen 127.0.0.1:7700
//
// Agent mode simulates an in-vehicle device streaming synthetic IMU data to
// a running controller:
//
//	darnetd -agent -connect 127.0.0.1:7700 -id imu-1 -duration 5s
//
// Either server mode can additionally expose the telemetry ops endpoint
// (/metrics, /healthz, /tracez, /debug/pprof) with -ops:
//
//	darnetd -listen 127.0.0.1:7700 -ops 127.0.0.1:7701
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"sync"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/durable"
	"darnet/internal/imu"
	"darnet/internal/obs"
	"darnet/internal/stream"
	"darnet/internal/synth"
	"darnet/internal/telemetry"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("darnetd: ")

	var (
		listen     = flag.String("listen", "127.0.0.1:7700", "controller listen address")
		ops        = flag.String("ops", "", "also serve the ops endpoint (/metrics, /healthz, /tracez, /debug/pprof) on this address")
		agentMode  = flag.Bool("agent", false, "run as a simulated agent instead of the controller")
		connect    = flag.String("connect", "127.0.0.1:7700", "controller address (agent mode)")
		agentID    = flag.String("id", "imu-1", "agent identifier (agent mode)")
		duration   = flag.Duration("duration", 5*time.Second, "how long the agent streams (agent mode)")
		drift      = flag.Float64("drift", 0.002, "simulated clock drift of the agent (fraction)")
		enginePath = flag.String("engine", "", "serve remote classification from this engine snapshot instead of collecting")
		idleT      = flag.Duration("idle-timeout", 0, "reap agent connections silent for this long (controller mode; 0 disables)")
		reconnect  = flag.Bool("reconnect", true, "redial the controller with exponential backoff after transport failures (agent mode)")
		ackTimeout = flag.Duration("ack-timeout", 5*time.Second, "bound each wait for a controller ack (agent mode; 0 waits forever)")

		streamEngine = flag.String("stream-engine", "", "classify stored readings online through this engine snapshot (controller mode)")
		streamQueue  = flag.Int("stream-queue", 64, "per-agent bounded classify queue capacity (streaming)")
		frameSkipMax = flag.Int("frame-skip-max", 4, "max consecutive frames reusing the last CNN result under overload (streaming)")
		alertDwell   = flag.Duration("alert-dwell", 2*time.Second, "evidence must persist this long before an alert raises or clears (streaming)")

		dataDir = flag.String("data-dir", "", "persist the controller's store in this directory (WAL + checkpoints; empty disables durability)")
		fsyncP  = flag.String("fsync", "interval", "WAL fsync policy: always (sync every commit), interval (group commit on a timer), never")
		ckptI   = flag.Duration("checkpoint-interval", durable.DefaultCheckpointEvery, "how often to checkpoint the store and rotate the WAL (0 checkpoints only at startup/shutdown)")

		scrapeI   = flag.Duration("scrape-interval", obs.DefaultScrapeInterval, "telemetry→history scrape cadence (controller mode; 0 disables the bridge)")
		retention = flag.Duration("history-retention", obs.DefaultRetention, "how much scraped metric history /metrics/history keeps")
		sloP99    = flag.Float64("slo-alert-p99", 0.5, "alert-latency p99 SLO threshold in seconds; burn rates over it drive /healthz")
	)
	flag.Parse()

	sOpts := streamOptions{
		enginePath: *streamEngine,
		queueCap:   *streamQueue,
		skipMax:    *frameSkipMax,
		dwell:      *alertDwell,
	}
	if err := sOpts.validate(); err != nil {
		log.Fatal(err)
	}
	oOpts := obsOptions{
		scrapeInterval: *scrapeI,
		retention:      *retention,
		alertP99:       *sloP99,
	}
	if err := oOpts.validate(); err != nil {
		log.Fatal(err)
	}
	dOpts := durOptions{
		dataDir:   *dataDir,
		fsync:     *fsyncP,
		ckptEvery: *ckptI,
	}
	if err := dOpts.validate(); err != nil {
		log.Fatal(err)
	}

	var err error
	switch {
	case *agentMode:
		err = runAgent(*connect, *agentID, *duration, *drift, *reconnect, *ackTimeout)
	case *enginePath != "":
		err = runEngineServer(*listen, *ops, *enginePath)
	default:
		err = runController(*listen, *ops, *idleT, sOpts, oOpts, dOpts)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// streamOptions bundle the streaming-classification flags; validation runs
// at startup in every mode so a typo'd unit (say -stream-queue=0) fails fast
// instead of surfacing when the pipeline is first needed.
type streamOptions struct {
	enginePath string
	queueCap   int
	skipMax    int
	dwell      time.Duration
}

func (o streamOptions) validate() error {
	if o.queueCap <= 0 {
		return fmt.Errorf("-stream-queue must be positive, got %d", o.queueCap)
	}
	if o.skipMax <= 0 {
		return fmt.Errorf("-frame-skip-max must be positive, got %d", o.skipMax)
	}
	if o.dwell <= 0 {
		return fmt.Errorf("-alert-dwell must be positive, got %v", o.dwell)
	}
	return nil
}

// obsOptions bundle the observability-bridge flags (controller mode).
type obsOptions struct {
	scrapeInterval time.Duration // 0 disables the bridge entirely
	retention      time.Duration
	alertP99       float64
}

func (o obsOptions) validate() error {
	if o.scrapeInterval < 0 {
		return fmt.Errorf("-scrape-interval must be non-negative, got %v", o.scrapeInterval)
	}
	if o.scrapeInterval > 0 && o.retention <= 0 {
		return fmt.Errorf("-history-retention must be positive, got %v", o.retention)
	}
	if o.alertP99 <= 0 {
		return fmt.Errorf("-slo-alert-p99 must be positive, got %g", o.alertP99)
	}
	return nil
}

// durOptions bundle the durability flags (controller mode). An empty data
// directory turns the whole subsystem off; the fsync policy still parses so a
// typo fails at startup, not when -data-dir is finally added.
type durOptions struct {
	dataDir   string
	fsync     string
	ckptEvery time.Duration
}

func (o durOptions) validate() error {
	if _, err := durable.ParsePolicy(o.fsync); err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	if o.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-interval must be non-negative, got %v", o.ckptEvery)
	}
	return nil
}

// setupDurability opens (or creates) the write-ahead log and checkpoint state
// under the data directory, recovering whatever a previous process left
// behind, and reports the recovery outcome to the operator. Returns nils when
// durability is off.
func setupDurability(db *tsdb.DB, o durOptions, out io.Writer) (*durable.Manager, *durable.Recovery, error) {
	if o.dataDir == "" {
		return nil, nil, nil
	}
	policy, err := durable.ParsePolicy(o.fsync)
	if err != nil {
		return nil, nil, err
	}
	fs, err := durable.NewDirFS(o.dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("open data dir: %w", err)
	}
	ckptEvery := o.ckptEvery
	if ckptEvery == 0 {
		ckptEvery = -1 // manager convention: non-positive disables the ticker
	}
	man, rec, err := durable.Open(db, durable.Options{
		FS:              fs,
		Policy:          policy,
		CheckpointEvery: ckptEvery,
		Logf:            log.Printf,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("durability: %w", err)
	}
	statusf(out, "durability on (data-dir %s, fsync %s, checkpoint every %v)\n", o.dataDir, policy, o.ckptEvery)
	statusf(out, "recovery: sessions=%d series=%d frames=%d replayed=%d discarded=%d torn=%dB lost=%dB degraded=%v\n",
		len(rec.Sessions), rec.SeriesLoaded, rec.FramesLoaded+rec.ReplayedFrames, rec.ReplayedInserts, rec.DiscardedInserts, rec.TornBytes, rec.LostBytes, rec.Degraded)
	if rec.Note != "" {
		statusf(out, "recovery: %s\n", rec.Note)
	}
	return man, rec, nil
}

// obsBridge owns the controller's observability background work: the
// telemetry→tsdb scraper feeding /metrics/history and the SLO evaluator
// driving /healthz from burn rates. A nil bridge (the -scrape-interval=0
// case) degrades every method to the pre-bridge behavior.
type obsBridge struct {
	scraper *obs.Scraper
	ev      *obs.Evaluator
	stop    chan struct{}
	wg      sync.WaitGroup
}

// setupObservability starts the scraper and SLO evaluator and installs the
// combined health source (stream mux verdict worst-cased with SLO burn rates
// and the durability manager's degradation latch). streamHealth and durHealth
// are nil when their subsystems are off.
func setupObservability(o obsOptions, streamHealth, durHealth func() telemetry.Health, out io.Writer) (*obsBridge, error) {
	if o.scrapeInterval == 0 {
		return nil, nil
	}
	scraper, err := obs.NewScraper(obs.ScrapeConfig{
		Interval:  o.scrapeInterval,
		Retention: o.retention,
	})
	if err != nil {
		return nil, err
	}
	db := scraper.DB()
	ev, err := obs.NewEvaluator(obs.EvaluatorConfig{},
		obs.LatencyObjective("darnet_slo_alert_latency", 0.1,
			"darnet_stream_alert_latency_seconds.p99", o.alertP99, db),
		obs.RatioObjective("darnet_slo_shed_ratio", 0.05,
			"darnet_stream_readings_shed_total", "darnet_collect_stream_forwarded_total", db),
		obs.RateObjective("darnet_slo_reconnect_rate", 1,
			"darnet_collect_reconnects_total", 0.2, db),
	)
	if err != nil {
		return nil, err
	}
	b := &obsBridge{scraper: scraper, ev: ev, stop: make(chan struct{})}
	scraper.Start()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		ev.Run(o.scrapeInterval, b.stop)
	}()
	telemetry.SetHealthSource(obs.CombineHealth(streamHealth, durHealth, ev.Health))
	statusf(out, "observability bridge on (scrape every %v, retention %v, alert p99 SLO %.2fs)\n",
		o.scrapeInterval, o.retention, o.alertP99)
	return b, nil
}

// handler composes the ops endpoint: the base telemetry handler plus the
// /metrics/history query route over the scraped partition.
func (b *obsBridge) handler() http.Handler {
	base := telemetry.NewOpsHandler(telemetry.Default, telemetry.DefaultTracer)
	if b == nil {
		return base
	}
	m := http.NewServeMux()
	m.Handle("/", base)
	m.Handle("/metrics/history", obs.NewHistoryHandler(b.scraper.DB()))
	return m
}

// shutdown stops the evaluator loop and the scraper; Scraper.Stop takes the
// final flush so the last pre-exit metric values are part of the history.
func (b *obsBridge) shutdown() {
	if b == nil {
		return
	}
	close(b.stop)
	b.wg.Wait()
	b.scraper.Stop()
}

// setupStreaming loads the engine snapshot and attaches a streaming mux to
// the controller: stored readings flow into per-agent classify pipelines,
// admission credits flow back through the acks, and the mux takes over the
// /healthz verdict (ok / degraded / overloaded). Returns nil when streaming
// is not requested.
func setupStreaming(ctrl *collect.Controller, o streamOptions, out io.Writer) (*stream.Mux, error) {
	if o.enginePath == "" {
		return nil, nil
	}
	f, err := os.Open(o.enginePath)
	if err != nil {
		return nil, fmt.Errorf("open stream engine snapshot: %w", err)
	}
	eng, err := core.LoadEngine(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("load stream engine: %w", err)
	}
	mux, err := stream.NewMux(stream.Config{
		QueueCap:     o.queueCap,
		FrameSkipMax: o.skipMax,
		Alert:        stream.AlertConfig{Dwell: o.dwell},
		OnAlert: func(agentID string, ev stream.AlertEvent, cls *core.Classification) {
			log.Printf("alert %v agent=%s class=%d confidence=%.2f mode=%v", ev, agentID, cls.Class, cls.Confidence, cls.Mode)
		},
	}, stream.EngineTickerFactory(eng))
	if err != nil {
		return nil, fmt.Errorf("stream mux: %w", err)
	}
	ctrl.SetStreamSink(mux)
	telemetry.SetHealthSource(mux.Health)
	statusf(out, "streaming classification on (%d classes, queue %d, frame-skip %d, alert dwell %v)\n",
		eng.Classes, o.queueCap, o.skipMax, o.dwell)
	return mux, nil
}

// notifyInterrupt returns a channel that closes on the first SIGINT and a
// release function that unregisters the handler and lets the signal
// goroutine exit. (An earlier version leaked that goroutine forever when the
// accept loop ended for any reason other than a signal.)
func notifyInterrupt() (<-chan struct{}, func()) {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	done := make(chan struct{})
	go func() {
		defer signal.Stop(sig)
		select {
		case <-sig:
			close(stop)
		case <-done:
		}
	}()
	return stop, func() { close(done) }
}

// listenPair opens the service listener and, when opsAddr is non-empty, the
// ops listener.
func listenPair(addr, opsAddr string) (ln, opsLn net.Listener, err error) {
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	if opsAddr != "" {
		opsLn, err = net.Listen("tcp", opsAddr)
		if err != nil {
			//lint:ignore errdrop already failing; the close error adds nothing
			ln.Close()
			return nil, nil, fmt.Errorf("ops listen: %w", err)
		}
	}
	return ln, opsLn, nil
}

// statusf writes operator status output. out is stdout in deployment and a
// discard sink in tests; a failed status write leaves nothing to act on.
func statusf(out io.Writer, format string, args ...any) {
	//lint:ignore errdrop status output; a failed write leaves nothing to act on
	fmt.Fprintf(out, format, args...)
}

// connTracker remembers accepted connections so shutdown can unblock their
// serve goroutines by closing them.
type connTracker struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newConnTracker() *connTracker {
	return &connTracker{conns: make(map[net.Conn]struct{})}
}

func (t *connTracker) add(c net.Conn) {
	t.mu.Lock()
	t.conns[c] = struct{}{}
	t.mu.Unlock()
}

// remove closes c and stops tracking it.
func (t *connTracker) remove(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	//lint:ignore errdrop connection teardown; the close error leaves nothing to act on
	c.Close()
}

func (t *connTracker) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := range t.conns {
		//lint:ignore errdrop shutdown path; the close error leaves nothing to act on
		c.Close()
	}
}

// startOps serves the ops endpoint on ln (nil disables it). A nil handler
// falls back to the plain telemetry handler; the controller passes the
// obsBridge composition so /metrics/history is mounted too. The returned
// server must be Closed to release its listener and goroutine.
func startOps(ln net.Listener, h http.Handler, out io.Writer) *http.Server {
	if ln == nil {
		return nil
	}
	if h == nil {
		h = telemetry.NewOpsHandler(telemetry.Default, telemetry.DefaultTracer)
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("ops: %v", err)
		}
	}()
	statusf(out, "ops endpoint on http://%s/metrics\n", ln.Addr())
	return srv
}

// acceptLoop accepts connections on ln and hands each to handle on its own
// goroutine until stop closes or the listener fails. When opsLn is non-nil
// the ops endpoint serves on it for the duration. On return both listeners
// and every tracked connection are closed and all spawned goroutines have
// exited.
func acceptLoop(ln, opsLn net.Listener, opsH http.Handler, stop <-chan struct{}, out io.Writer, handle func(net.Conn)) {
	opsSrv := startOps(opsLn, opsH, out)
	tracker := newConnTracker()
	done := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-stop:
			statusf(out, "\nshutting down\n")
		case <-done:
		}
		//lint:ignore errdrop shutdown path; the close error leaves nothing to act on
		ln.Close()
		tracker.closeAll()
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed
		}
		tracker.add(conn)
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer tracker.remove(conn)
			handle(conn)
		}(conn)
	}
	close(done)
	watch.Wait()
	wg.Wait()
	if opsSrv != nil {
		//lint:ignore errdrop shutdown path; the close error leaves nothing to act on
		opsSrv.Close()
	}
}

func wallMillis() int64 { return time.Now().UnixMilli() }

func runController(listen, opsAddr string, idleTimeout time.Duration, sOpts streamOptions, oOpts obsOptions, dOpts durOptions) error {
	ln, opsLn, err := listenPair(listen, opsAddr)
	if err != nil {
		return err
	}
	fmt.Printf("controller listening on %s (clock re-sync every %d ms)\n", ln.Addr(), collect.SyncPeriodMillis)
	stop, release := notifyInterrupt()
	defer release()
	return runControllerWith(ln, opsLn, idleTimeout, sOpts, oOpts, dOpts, stop, os.Stdout)
}

// runControllerWith is the controller lifecycle behind runController: recover
// durable state, wire up streaming and the observability bridge, serve until
// stop closes, then tear down in summary order — stream drain, final
// telemetry scrape, final checkpoint + WAL close, and the parseable
// shutdown-summary line last. Split out so tests can drive it with ephemeral
// listeners and a controllable stop channel.
func runControllerWith(ln, opsLn net.Listener, idleTimeout time.Duration, sOpts streamOptions, oOpts obsOptions, dOpts durOptions, stop <-chan struct{}, out io.Writer) error {
	closeAll := func() {
		//lint:ignore errdrop already failing; the close error adds nothing
		ln.Close()
		if opsLn != nil {
			//lint:ignore errdrop already failing; the close error adds nothing
			opsLn.Close()
		}
	}
	db := tsdb.New()
	man, rec, err := setupDurability(db, dOpts, out)
	if err != nil {
		closeAll()
		return err
	}
	ctrl := collect.NewController(db, wallMillis)
	var durHealth func() telemetry.Health
	if man != nil {
		// Order matters: sessions restore before the listener accepts (so the
		// first resumed agent already hits the recovered dedupe marks), and the
		// commit log attaches before the session source so every mark the
		// checkpointer snapshots was also appended.
		ctrl.RestoreSessions(rec.Sessions)
		ctrl.RestoreFrames(rec.Frames)
		ctrl.SetCommitLog(man)
		man.SetSessionSource(ctrl.SessionSnapshot)
		man.SetFrameSource(ctrl.FrameSnapshot)
		man.Start()
		durHealth = man.Health
	}
	if idleTimeout > 0 {
		ctrl.SetIdleTimeout(idleTimeout)
		statusf(out, "reaping connections silent for %v\n", idleTimeout)
	}
	mux, err := setupStreaming(ctrl, sOpts, out)
	if err != nil {
		closeAll()
		if man != nil {
			//lint:ignore errdrop already failing; the close error adds nothing
			man.Close()
		}
		return err
	}
	var streamHealth func() telemetry.Health
	if mux != nil {
		streamHealth = mux.Health
	}
	bridge, err := setupObservability(oOpts, streamHealth, durHealth, out)
	if err != nil {
		closeAll()
		if mux != nil {
			telemetry.SetHealthSource(nil)
			mux.Shutdown()
		}
		if man != nil {
			//lint:ignore errdrop already failing; the close error adds nothing
			man.Close()
		}
		return err
	}
	if bridge == nil && durHealth != nil {
		// No SLO evaluator to compose with: /healthz still reports durability
		// degradation (worst-cased with the stream verdict when present).
		telemetry.SetHealthSource(obs.CombineHealth(streamHealth, durHealth))
	}

	serveController(ctrl, db, ln, opsLn, bridge.handler(), stop, out)

	// Shutdown: detach the health source, drain the stream pipelines, flush
	// the final telemetry scrape, close out durability (final checkpoint, WAL
	// sync and close — after the scrape so its counters include the last
	// flush), then emit the machine-parseable summary as the last line so
	// operators and scripts read the same post-flush state.
	telemetry.SetHealthSource(nil)
	var streamStats *stream.Stats
	if mux != nil {
		mux.Shutdown()
		s := mux.Stats()
		streamStats = &s
		statusf(out, "stream: decisions=%d shed=%d skipped=%d restarts=%d alerts=%d/%d max-depth=%d\n",
			s.Decisions, s.ShedReadings, s.FramesSkipped, s.Restarts, s.AlertsRaised, s.AlertsCleared, s.MaxDepth)
	}
	bridge.shutdown()
	var durStats *durable.ManagerStats
	if man != nil {
		if err := man.Close(); err != nil {
			log.Printf("durability close: %v", err)
		}
		s := man.Stats()
		durStats = &s
		statusf(out, "durability: checkpoint gen=%d lsn=%d wal-bytes=%d synced=%d fsync=%s\n",
			s.CheckpointGen, s.CheckpointLSN, s.WALBytes, s.WALSynced, s.Policy)
	}
	printShutdownSummary(out, ctrl, bridge, streamStats, durStats)
	return nil
}

// shutdownSummary is the parseable final line of a controller run, emitted
// after the observability bridge's final scrape so the counts include it.
type shutdownSummary struct {
	Agents          int    `json:"agents"`
	StoredSeries    int    `json:"stored_series"`
	Scrapes         int64  `json:"scrapes"`
	HistorySeries   int    `json:"history_series"`
	SLOStatus       string `json:"slo_status"`
	StreamDecisions int64  `json:"stream_decisions"`
	StreamShed      int64  `json:"stream_shed"`
	AlertsRaised    int64  `json:"alerts_raised"`
	FsyncPolicy     string `json:"fsync_policy"`
	CheckpointGen   uint64 `json:"checkpoint_gen"`
	CheckpointLSN   uint64 `json:"checkpoint_lsn"`
	WALBytes        uint64 `json:"wal_bytes"`
}

func printShutdownSummary(out io.Writer, ctrl *collect.Controller, bridge *obsBridge, streamStats *stream.Stats, durStats *durable.ManagerStats) {
	sum := shutdownSummary{
		Agents:      len(ctrl.AgentIDs()),
		SLOStatus:   "disabled",
		FsyncPolicy: "disabled",
	}
	if bridge != nil {
		sum.Scrapes = bridge.scraper.Scrapes()
		sum.HistorySeries = len(bridge.scraper.DB().Series())
		sum.SLOStatus = bridge.ev.Health().Status
	}
	if streamStats != nil {
		sum.StreamDecisions = streamStats.Decisions
		sum.StreamShed = streamStats.ShedReadings
		sum.AlertsRaised = streamStats.AlertsRaised
	}
	if durStats != nil {
		sum.FsyncPolicy = durStats.Policy
		sum.CheckpointGen = durStats.CheckpointGen
		sum.CheckpointLSN = durStats.CheckpointLSN
		sum.WALBytes = durStats.WALBytes
	}
	data, err := json.Marshal(sum)
	if err != nil {
		log.Printf("shutdown summary: %v", err)
		return
	}
	statusf(out, "shutdown-summary %s\n", data)
}

// serveController runs the controller accept loop until stop closes, then
// prints the per-agent session summary. Each connection's serve goroutine
// carries pprof labels (stage, peer) so goroutine profiles taken from the ops
// endpoint attribute blocked reads to the agent connection holding them.
func serveController(ctrl *collect.Controller, db *tsdb.DB, ln, opsLn net.Listener, opsH http.Handler, stop <-chan struct{}, out io.Writer) {
	acceptLoop(ln, opsLn, opsH, stop, out, func(conn net.Conn) {
		remote := conn.RemoteAddr()
		labels := pprof.Labels("darnet_stage", "controller_conn", "darnet_peer", remote.String())
		pprof.Do(context.Background(), labels, func(context.Context) {
			err := ctrl.ServeConn(wire.NewConn(conn))
			switch {
			case err == nil:
				statusf(out, "agent %v disconnected\n", remote)
			case errors.Is(err, net.ErrClosed):
				// Shutdown closed the connection under a blocked read; not an
				// agent fault, nothing to report.
			default:
				log.Printf("agent %v: %v", remote, err)
			}
		})
	})

	// Session summary.
	for _, id := range ctrl.AgentIDs() {
		st, _ := ctrl.AgentStats(id)
		statusf(out, "agent %-10s modality=%-7s batches=%d readings=%d last-skew=%dms rtt=%dms\n",
			id, st.Modality, st.Batches, st.Readings, st.LastSkewMill, st.LastRTTMillis)
	}
	for _, s := range db.Series() {
		first, last, ok := db.Bounds(s)
		if ok {
			statusf(out, "series %-24s %6d points over %d ms\n", s, db.Len(s), last-first)
		}
	}
}

// runEngineServer runs the paper's remote configuration: a server holding
// the trained analytics engine, answering classify requests over the wire
// protocol.
func runEngineServer(listen, opsAddr, enginePath string) error {
	f, err := os.Open(enginePath)
	if err != nil {
		return fmt.Errorf("open engine snapshot: %w", err)
	}
	eng, err := core.LoadEngine(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("load engine: %w", err)
	}
	ln, opsLn, err := listenPair(listen, opsAddr)
	if err != nil {
		return err
	}
	fmt.Printf("analytics engine (%d classes, %dx%d frames) serving on %s\n",
		eng.Classes, eng.ImgW, eng.ImgH, ln.Addr())
	stop, release := notifyInterrupt()
	defer release()
	serveEngine(eng, ln, opsLn, stop, os.Stdout)
	return nil
}

// serveEngine runs the classify accept loop until stop closes. The stop
// channel is bridged into a context so per-connection serving loops (and the
// span contexts they derive) observe server shutdown.
func serveEngine(eng *core.Engine, ln, opsLn net.Listener, stop <-chan struct{}, out io.Writer) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
		case <-ctx.Done():
		}
		cancel()
	}()
	acceptLoop(ln, opsLn, nil, stop, out, func(conn net.Conn) {
		err := eng.ServeClassifyCtx(ctx, wire.NewConn(conn))
		if err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, context.Canceled) {
			log.Printf("client %v: %v", conn.RemoteAddr(), err)
		}
	})
}

func runAgent(addr, id string, duration time.Duration, drift float64, reconnect bool, ackTimeout time.Duration) error {
	dial := func() (*wire.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("connect: %w", err)
		}
		return wire.NewConn(c), nil
	}
	conn, err := dial()
	if err != nil {
		return err
	}
	defer func() {
		//lint:ignore errdrop session teardown; the close error leaves nothing to act on
		conn.Close()
	}()

	clock := collect.NewDriftClock(wallMillis, drift)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	// Stream a talking-class IMU signature, replaying the generator window
	// by window.
	window := synth.GenerateWindow(rng, synth.Talking, synth.DefaultIMUGen())
	step := 0
	next := func() imu.Sample {
		s := window.Samples[step%len(window.Samples)]
		step++
		if step%len(window.Samples) == 0 {
			window = synth.GenerateWindow(rng, synth.Talking, synth.DefaultIMUGen())
		}
		return s
	}
	current := next()
	sensors := collect.IMUSensors(func() imu.Sample { return current })
	agent, err := collect.NewAgent(collect.AgentConfig{
		ID: id, Modality: "imu", PollPeriodMS: 25, LatencyComp: 2, AckTimeout: ackTimeout,
	}, clock, sensors, conn)
	if err != nil {
		return err
	}
	rcfg := collect.RunnerConfig{FlushEvery: 500 * time.Millisecond, OnPoll: func() { current = next() }}
	if reconnect {
		rcfg.Dialer = dial
		rcfg.Seed = time.Now().UnixNano() // decorrelate fleet backoff jitter
	}
	runner, err := collect.StartRunnerConfig(agent, rcfg)
	if err != nil {
		return err
	}
	fmt.Printf("agent %s streaming to %s for %v (drift %.3f%%, reconnect=%v)\n", id, addr, duration, drift*100, reconnect)
	time.Sleep(duration)
	if err := runner.Shutdown(); err != nil {
		return err
	}
	fmt.Printf("agent %s done, final clock skew %d ms, survived %d outages, spill-dropped %d readings\n",
		id, agent.ClockSkewMillis(), runner.Reconnects(), agent.SpillDropped())
	return nil
}
