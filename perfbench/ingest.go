package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darnet/internal/collect"
	"darnet/internal/durable"
	"darnet/internal/imu"
	"darnet/internal/synth"
	"darnet/internal/tsdb"
)

// ingest workload sizing.
const (
	ingestAgents   = 2
	pollsPerFlush  = 20   // darnetd's agent: 25 ms polls, a flush every 500 ms
	imuSensors     = 4    // accel, gyro, gravity, rotation: one reading each per poll
	pointsPerPoll  = 13   // accel 3 + gyro 3 + gravity 3 + rotation 4 values
	ingestRate     = 1800 // flushes per nominal second, both agents together
	roundFlushes   = 1000 // timed flushes per agent and round
	roundWarmup    = 20   // untimed flushes per agent and round
	checkpointEach = 250  // a checkpoint every this many batches of a round
	recoveryReps   = 5

	// The recovery fixture: fixtureBatches committed batches per agent of
	// pollsPerFlush polls each, written as an untimed WAL.
	fixtureAgents  = 2
	fixtureBatches = 300
)

// imuSamples returns n samples of synthetic driving IMU data drawn from the
// seed, cycling the classes window by window.
func imuSamples(seed int64, n int) []imu.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]imu.Sample, 0, n)
	for c := 0; len(out) < n; c++ {
		w := synth.GenerateWindow(rng, synth.Class(c%synth.NumClasses), synth.DefaultIMUGen())
		out = append(out, w.Samples...)
	}
	return out[:n]
}

// writeFixture writes the recovery fixture into dir as a crash image: the
// committed batches' WAL is synced and copied to pristine before the
// manager's shutdown checkpoint would make replay unnecessary. It returns
// the number of points and commit marks the fixture holds.
func writeFixture(dir, pristine string, seed int64) (points, marks int, err error) {
	fs, err := durable.NewDirFS(dir)
	if err != nil {
		return 0, 0, err
	}
	db := tsdb.New()
	mgr, _, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyNever, CheckpointEvery: -1})
	if err != nil {
		return 0, 0, err
	}
	samples := imuSamples(seed^0x5eed, pollsPerFlush)
	var appendErr error
	for b := 1; b <= fixtureBatches; b++ {
		for a := 0; a < fixtureAgents; a++ {
			agent := fmt.Sprintf("fixture-%d", a)
			db.Update(func(insert func(string, tsdb.Point)) {
				for p := 0; p < pollsPerFlush; p++ {
					ts := int64((b*pollsPerFlush + p) * 25)
					cur := samples[p]
					for _, s := range collect.IMUSensors(func() imu.Sample { return cur }) {
						for axis, v := range s.Read() {
							insert(fmt.Sprintf("%s[%d]", collect.SeriesName(agent, s.Name()), axis), tsdb.Point{TimestampMillis: ts, Value: v})
							points++
						}
					}
				}
				if err := mgr.AppendCommit(agent, uint64(b)); err != nil && appendErr == nil {
					appendErr = err
				}
				marks++
			})
		}
	}
	err = errors.Join(appendErr, mgr.Sync(), copyDir(dir, pristine), mgr.Close())
	return points, marks, err
}

// runIngest runs two agents on their own goroutines and loopback TCP
// connections, sending IMU readings in a closed loop: each Flush waits for
// its ack. The controller logs every batch to a WAL with fsync policy
// interval; the benchmark checkpoints at fixed batch counts. One operation
// is one flush.
//
// The operations are split into rounds of a fixed size, each against a
// controller freshly recovered from the fixture, so the store, the WAL and
// the checkpoints stay the same size whatever the program's speed.
func runIngest(cfg *runConfig) (*outcome, error) {
	out := &outcome{}
	ig := &ingest{cfg: cfg, out: out, pristine: filepath.Join(cfg.dir, "fixture-image")}
	var err error
	ig.fixturePoints, ig.fixtureMarks, err = writeFixture(filepath.Join(cfg.dir, "fixture"), ig.pristine, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write fixture: %w", err)
	}
	if cfg.trace {
		ig.rec = newRecorder()
		out.layers = make(map[string]float64)
	}

	// Set-up: recover the fixture recoveryReps times, each from a fresh
	// copy; the last recovered controller serves the first round.
	var e *env
	var opens []float64
	for i := 0; i < recoveryReps; i++ {
		ne, ready, took, replayed, err := ig.recover()
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, ready.Seconds())
		opens = append(opens, took.Seconds())
		if cfg.trace {
			out.layers["durable.recovery_s"] = median(opens)
			out.layers["durable.replayed_records"] = float64(replayed)
		}
		if i < recoveryReps-1 {
			if err := ne.close(); err != nil {
				return nil, err
			}
		} else {
			e = ne
		}
	}

	rounds := max(1, int(math.Round(ingestRate*cfg.seconds/(roundFlushes*ingestAgents))))
	traceFrom := rounds // rounds from here on are traced
	if cfg.trace {
		rounds = max(2, rounds)
		traceFrom = rounds / 2
	}
	var untraced, traced time.Duration
	var perRound []float64
	var r0 runtimeSample
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if e, _, _, _, err = ig.recover(); err != nil {
				return nil, err
			}
		}
		settle()
		if r == traceFrom {
			r0 = readRuntime()
		}
		elapsed, err := ig.round(e, r >= traceFrom)
		closeErr := e.close()
		if err = errors.Join(err, closeErr); err != nil {
			return nil, err
		}
		if r >= traceFrom {
			traced += elapsed
		} else {
			untraced += elapsed
			perRound = append(perRound, float64(roundFlushes*ingestAgents*pollsPerFlush*imuSensors)/elapsed.Seconds())
		}
	}
	// Throughput is the median of the rounds', so one round hit by host
	// noise does not move it.
	out.throughput = median(perRound)
	if cfg.trace {
		ig.traceLayers(r0, untraced, traced, rounds-traceFrom, traceFrom)
		if err := ig.rec.write(cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ingest is the state of one ingest run.
type ingest struct {
	cfg                         *runConfig
	out                         *outcome
	rec                         *recorder
	pristine                    string
	fixturePoints, fixtureMarks int
	recoveries                  int
	tracedPoints                int // points stored by the agents of traced rounds
}

// recover copies the fixture image into a fresh data directory (untimed),
// recovers a controller from it and checks that it holds exactly the
// fixture's records. It returns the env, the time the controller took to
// become ready, the part of it durable.Open took, and the records replayed.
func (ig *ingest) recover() (e *env, ready, took time.Duration, replayed int, err error) {
	dir := filepath.Join(ig.cfg.dir, fmt.Sprintf("data-%d", ig.recoveries))
	ig.recoveries++
	if err := copyDir(ig.pristine, dir); err != nil {
		return nil, 0, 0, 0, err
	}
	start := time.Now()
	e, recov, took, err := openEnv(dir, ig.rec, wallMillis)
	ready = time.Since(start)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	e.dir = dir
	ig.out.attempted++
	if why := checkRecovery(e.db, recov, ig.fixturePoints, ig.fixtureMarks); why != "" {
		ig.out.failed++
		logf("ingest: recovery into %s: %s", dir, why)
	}
	return e, ready, took, recov.ReplayedRecords, nil
}

// checkRecovery reports how a recovery of the fixture differs from what the
// fixture holds, or "" when it restored exactly the fixture's records.
func checkRecovery(db *tsdb.DB, recov *durable.Recovery, points, marks int) string {
	if recov.Degraded || recov.ReplayedInserts != points || recov.ReplayedRecords != points+marks {
		return fmt.Sprintf("replayed %d inserts and %d records, want %d and %d (degraded %v)",
			recov.ReplayedInserts, recov.ReplayedRecords, points, points+marks, recov.Degraded)
	}
	if got := storedPoints(db, "fixture-"); got != points {
		return fmt.Sprintf("store holds %d fixture points, want %d", got, points)
	}
	for _, s := range recov.Sessions {
		if s.LastSeq != fixtureBatches {
			return fmt.Sprintf("session %s restored at seq %d, want %d", s.AgentID, s.LastSeq, fixtureBatches)
		}
	}
	if len(recov.Sessions) != fixtureAgents {
		return fmt.Sprintf("restored %d sessions, want %d", len(recov.Sessions), fixtureAgents)
	}
	return ""
}

// storedPoints counts the points of every series whose name starts with
// prefix.
func storedPoints(db *tsdb.DB, prefix string) int {
	n := 0
	for _, s := range db.Series() {
		if strings.HasPrefix(s, prefix) {
			n += db.Len(s)
		}
	}
	return n
}

// ingestAgent is one closed-loop agent of the ingest workload.
type ingestAgent struct {
	id      string
	idx     uint64
	agent   *collect.Agent
	clock   *collect.ManualTime
	samples []imu.Sample
	next    int
	flushes int
	failed  int
	lat     latencies
}

// round polls one batch worth of readings and flushes it, waiting for the
// ack.
func (ia *ingestAgent) round(rec *recorder) error {
	for p := 0; p < pollsPerFlush; p++ {
		ia.clock.Advance(25)
		ia.next++
		s := time.Now()
		ia.agent.Poll()
		rec.observe("collect.poll", time.Since(s))
	}
	ia.flushes++
	s := time.Now()
	err := ia.agent.Flush()
	e := time.Now()
	ia.lat.add(e.Sub(s))
	rec.span("collect.flush", ia.idx<<32|uint64(ia.flushes), 0, s, e)
	if err != nil {
		ia.failed++
	}
	return err
}

// round connects fresh agents to e, runs the untimed warm-up and the timed
// closed loop, and checks what the controller stored. It returns the time
// the timed loop took.
func (ig *ingest) round(e *env, traced bool) (time.Duration, error) {
	agents := make([]*ingestAgent, ingestAgents)
	for i := range agents {
		raw, conn, err := e.dial()
		if err != nil {
			return 0, err
		}
		defer raw.Close()
		ia := &ingestAgent{id: fmt.Sprintf("ingest-%d", i), idx: uint64(i),
			clock: collect.NewManualTime(0), samples: imuSamples(ig.cfg.seed+int64(i), 4096)}
		ia.agent, err = collect.NewAgent(collect.AgentConfig{ID: ia.id, Modality: "imu", PollPeriodMS: 25, AckTimeout: ackTimeout},
			collect.NewDriftClock(ia.clock.Now, 0),
			collect.IMUSensors(func() imu.Sample { return ia.samples[ia.next%len(ia.samples)] }), conn)
		if err != nil {
			return 0, err
		}
		if err := ia.agent.Hello(); err != nil {
			return 0, err
		}
		agents[i] = ia
	}
	if _, err := ig.phase(e, agents, roundWarmup, nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	for _, ia := range agents {
		ia.lat.ms = ia.lat.ms[:0]
	}

	var rec *recorder
	var hs *heapSampler
	if traced {
		rec = ig.rec
		rec.on.Store(true)
	} else {
		hs = startHeapSampler()
	}
	elapsed, err := ig.phase(e, agents, roundFlushes, rec)
	if traced {
		rec.on.Store(false)
	} else {
		ig.out.heapPeaks = append(ig.out.heapPeaks, slices.Max(hs.finish()))
		for _, ia := range agents {
			ig.out.lat.ms = append(ig.out.lat.ms, ia.lat.ms...)
		}
	}
	if err != nil {
		return 0, err
	}

	// Untimed checks: every acked reading is stored exactly once.
	readingsPerFlush := pollsPerFlush * imuSensors
	acked := 0
	for _, ia := range agents {
		ig.out.attempted += roundFlushes + 1
		ig.out.failed += ia.failed
		st, ok := e.ctrl.AgentStats(ia.id)
		want := ia.flushes * readingsPerFlush
		if !ok || st.Readings != want || st.Deduped != 0 || st.LastSeq != uint64(ia.flushes) {
			ig.out.failed++
			logf("ingest: %s stored %d readings at seq %d with %d dedupe hits, want %d at seq %d and none",
				ia.id, st.Readings, st.LastSeq, st.Deduped, want, ia.flushes)
		}
		acked += ia.flushes * pollsPerFlush * pointsPerPoll
	}
	ig.out.attempted++
	stored := storedPoints(e.db, "ingest-")
	if stored != acked {
		ig.out.failed++
		logf("ingest: store holds %d points, the acked readings carried %d", stored, acked)
	}
	if traced {
		ig.tracedPoints += stored
	}
	if errs := e.serveErrors(); len(errs) > 0 {
		return 0, fmt.Errorf("controller: %w", errors.Join(errs...))
	}
	return elapsed, nil
}

// phase runs n flushes on every agent at once and returns the elapsed time.
// Every checkpointEach-th batch of the phase triggers a checkpoint on a
// goroutine of its own, as the manager's timer would.
func (ig *ingest) phase(e *env, agents []*ingestAgent, n int, rec *recorder) (time.Duration, error) {
	var batches atomic.Int64
	ckpt := make(chan struct{}, 1)
	var ckptErr error
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for range ckpt {
			s := time.Now()
			ckptErr = errors.Join(ckptErr, e.mgr.Checkpoint())
			rec.span("durable.checkpoint", 0, 0, s, time.Now())
		}
	}()
	errs := make([]error, len(agents))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ia := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				if err := ia.round(rec); err != nil {
					errs[i] = err
					return
				}
				if batches.Add(1)%checkpointEach == 0 {
					select {
					case ckpt <- struct{}{}:
					default: // one is already pending
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(ckpt)
	ckptWG.Wait()
	return elapsed, errors.Join(append(errs, ckptErr)...)
}

// traceLayers computes the per-layer metrics of the traced rounds.
func (ig *ingest) traceLayers(r0 runtimeSample, untraced, traced time.Duration, tracedRounds, untracedRounds int) {
	rec, l := ig.rec, ig.out.layers
	batches := float64(tracedRounds * roundFlushes * ingestAgents)
	readings := batches * float64(pollsPerFlush*imuSensors)
	runtimeLayers(l, r0, readRuntime(), int(batches))
	l["trace.overhead_share"] = 1 - (untraced.Seconds()/float64(untracedRounds))/(traced.Seconds()/float64(tracedRounds))
	l["collect.poll_us"] = rec.mean("collect.poll", time.Microsecond)
	l["collect.flush_ms"] = rec.mean("collect.flush", time.Millisecond)
	l["collect.serve_ms"] = rec.mean("collect.serve", time.Millisecond)
	l["wire.writes_per_batch"] = float64(rec.count("wire.batch_writes")) / batches
	l["wire.bytes_per_reading"] = float64(rec.count("wire.batch_bytes")) / readings
	l["durable.writes_per_batch"] = float64(rec.count("durable.wal_write")) / batches
	l["durable.bytes_per_reading"] = float64(rec.count("durable.wal_bytes")) / readings
	l["durable.write_us"] = rec.mean("durable.wal_write", time.Microsecond)
	l["durable.write_share"] = share(float64(rec.sum("durable.wal_write")), float64(rec.sum("collect.flush")))
	l["durable.fsync_ms"] = rec.mean("durable.wal_sync", time.Millisecond)
	l["durable.checkpoint_ms"] = rec.mean("durable.checkpoint", time.Millisecond)
	l["tsdb.points_stored"] = float64(ig.tracedPoints)
}
