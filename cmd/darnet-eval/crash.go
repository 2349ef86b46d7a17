package main

// The crash experiment measures what durability costs and what it buys: WAL
// insert overhead against the no-WAL baseline per fsync policy, recovery wall
// time and replayed records for a large un-checkpointed log, the measured
// data-loss bound of each policy after a simulated power cut, and a
// crash-injection matrix (torn tail, bit flip, fsync failure) proving the
// recovery decision table end to end. It is the durability counterpart of the
// -exp chaos transport-fault probe.

import (
	"fmt"
	"os"
	"time"

	"darnet/internal/durable"
	"darnet/internal/fault"
	"darnet/internal/tsdb"
)

// crashCommitEvery is how many readings form one committed batch: the WAL
// sees one commit mark (and, under fsync=always, one fsync) per batch.
const crashCommitEvery = 1000

// crashBench runs the durability benchmark and writes the report to
// outPath: readings scales with the shared -scale flag so the committed
// report measures recovery at 10^6 readings (scale 1) while smoke runs stay
// fast.
func crashBench(scale float64, seed int64, outPath string) error {
	start := time.Now()
	readings := int(1_000_000 * scale)
	if readings < 10_000 {
		readings = 10_000
	}
	m := metricSet{}
	m.set("readings", float64(readings), "count")

	// Baseline: the bare insert path, no logger attached — the denominator
	// of every policy's overhead_pct.
	base := tsdb.New()
	baseStart := time.Now()
	crashInsert(base, nil, readings)
	baselineNs := float64(time.Since(baseStart).Nanoseconds()) / float64(readings)
	m.set("baseline_ns_per_op", baselineNs, "ns")

	dir, err := os.MkdirTemp("", "darnet-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	for _, policy := range []durable.Policy{durable.PolicyAlways, durable.PolicyInterval, durable.PolicyNever} {
		if err := crashMeasurePolicy(m, dir, policy, readings, baselineNs); err != nil {
			return fmt.Errorf("crash: policy %v: %w", policy, err)
		}
	}

	// Recovery of a real on-disk WAL holding every reading above, without
	// the benefit of a shutdown checkpoint.
	recMS, recInserts, recPoints, err := crashMeasureRecovery(readings)
	if err != nil {
		return fmt.Errorf("crash: recovery: %w", err)
	}
	m.set("recovery_ms", recMS, "ms")
	m.set("recovered_inserts", float64(recInserts), "count")
	m.set("recovered_points", float64(recPoints), "count")

	// Every fault.* must hold for the recovery contract to hold.
	for name, held := range crashFaultMatrix(seed) {
		m.set("fault."+name, oneIf(held), "bool")
	}
	m.set("duration_ms", float64(time.Since(start).Milliseconds()), "ms")
	return writeReport(outPath, "crash", seed, m)
}

// crashCommit appends a batch's commit mark and runs the pre-ack group
// commit, mirroring the controller's two-step commit discipline (append
// inside the store critical section, fsync outside it before the ack).
func crashCommit(man *durable.Manager, agentID string, seq uint64) error {
	if err := man.AppendCommit(agentID, seq); err != nil {
		return err
	}
	return man.SyncCommits()
}

// crashInsert streams readings into db as committed batches; a nil manager
// stores without marks (the baseline).
func crashInsert(db *tsdb.DB, man *durable.Manager, readings int) {
	for i := 0; i < readings; i++ {
		db.Insert("car-1/acc[0]", tsdb.Point{TimestampMillis: int64(i), Value: float64(i)})
		if man != nil && (i+1)%crashCommitEvery == 0 {
			//lint:ignore errdrop benchmark load loop; degradation shows up in the numbers
			crashCommit(man, "car-1", uint64((i+1)/crashCommitEvery))
		}
	}
}

// crashMeasurePolicy times the WAL-attached insert path on a real directory
// FS for one policy, then replays a deterministic power cut on the in-memory
// crash FS to measure that policy's committed-data loss against its
// documented bound. It records the results as metrics named <policy>.*.
func crashMeasurePolicy(m metricSet, dir string, policy durable.Policy, readings int, baselineNs float64) error {
	sub, err := os.MkdirTemp(dir, policy.String()+"-*")
	if err != nil {
		return err
	}
	fs, err := durable.NewDirFS(sub)
	if err != nil {
		return err
	}
	db := tsdb.New()
	man, _, err := durable.Open(db, durable.Options{FS: fs, Policy: policy, CheckpointEvery: -1, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	if policy == durable.PolicyInterval {
		man.Start() // the 200ms group-commit ticker is part of this policy's cost
	}
	insStart := time.Now()
	crashInsert(db, man, readings)
	insertNs := float64(time.Since(insStart).Nanoseconds()) / float64(readings)
	if err := man.Close(); err != nil {
		return err
	}

	// Power cut: 25 committed batches of 100 readings on the crash FS. Sync
	// points are explicit so the measured loss is exact: always syncs every
	// commit (bound 0), interval group-commits every 10th batch (bound = one
	// window), never relies on checkpoints alone (bound = everything).
	const batches, per, window = 25, 100, 10
	mem := durable.NewMemFS()
	cdb := tsdb.New()
	cman, _, err := durable.Open(cdb, durable.Options{FS: mem, Policy: policy, CheckpointEvery: -1, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	for b := 1; b <= batches; b++ {
		for i := 0; i < per; i++ {
			cdb.Insert("car-1/acc[0]", tsdb.Point{TimestampMillis: int64((b-1)*per + i), Value: 1})
		}
		if err := crashCommit(cman, "car-1", uint64(b)); err != nil {
			return err
		}
		if policy == durable.PolicyInterval && b%window == 0 {
			if err := cman.Sync(); err != nil {
				return err
			}
		}
	}
	committed := batches * per
	mem.Crash()

	rdb := tsdb.New()
	rman, _, err := durable.Open(rdb, durable.Options{FS: mem, Policy: policy, CheckpointEvery: -1, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	//lint:ignore errdrop measurement FS is discarded after the loss count
	rman.Close()
	// Readings acked as committed before the cut that the recovered store
	// is missing, against the policy's documented worst-case loss.
	lost := committed - rdb.Len("car-1/acc[0]")
	bound := committed
	switch policy {
	case durable.PolicyAlways:
		bound = 0
	case durable.PolicyInterval:
		bound = (batches % window) * per // the unsynced tail window
	}
	p := policy.String() + "."
	m.set(p+"insert_ns_per_op", insertNs, "ns")
	m.set(p+"overhead_pct", (insertNs-baselineNs)/baselineNs*100, "%")
	m.set(p+"committed_readings", float64(committed), "count")
	m.set(p+"lost_readings", float64(lost), "count")
	m.set(p+"loss_bound", float64(bound), "count")
	m.set(p+"loss_bound_ok", oneIf(lost >= 0 && lost <= bound), "bool")
	return nil
}

// crashMeasureRecovery writes an on-disk WAL holding every reading with no
// shutdown checkpoint (the process "crashed"), then times a full recovery.
func crashMeasureRecovery(readings int) (ms float64, inserts, points int, err error) {
	dir, err := os.MkdirTemp("", "darnet-crash-recover-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	fs, err := durable.NewDirFS(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	db := tsdb.New()
	man, _, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyNever, CheckpointEvery: -1, Logf: func(string, ...any) {}})
	if err != nil {
		return 0, 0, 0, err
	}
	crashInsert(db, man, readings)
	if err := man.Sync(); err != nil { // the data reached disk; the checkpoint did not
		return 0, 0, 0, err
	}
	// No Close: the WAL is abandoned mid-generation, exactly like a crash.

	rdb := tsdb.New()
	recStart := time.Now()
	_, rec, err := durable.Open(rdb, durable.Options{FS: fs, Policy: durable.PolicyNever, CheckpointEvery: -1, Logf: func(string, ...any) {}})
	if err != nil {
		return 0, 0, 0, err
	}
	ms = float64(time.Since(recStart).Microseconds()) / 1000
	return ms, rec.ReplayedInserts, rdb.Len("car-1/acc[0]"), nil
}

// crashFaultMatrix drives recovery through the injected-fault schedules and
// reports whether each upheld its contract: a torn tail truncates and
// recovers clean, a bit flip degrades with a loss bound instead of storing
// corrupt data, and an fsync failure latches degradation while serving.
func crashFaultMatrix(seed int64) map[string]bool {
	out := map[string]bool{"torn_tail": false, "bit_flip": false, "sync_error": false}
	quiet := func(string, ...any) {}
	walGen1 := fmt.Sprintf("wal-%016x.wal", 1)

	// Torn tail: tear the active WAL mid-record, crash, recover clean.
	{
		mem := durable.NewMemFS()
		fs := fault.NewFS(mem, func(name string) *fault.FileConfig {
			if name == walGen1 {
				return &fault.FileConfig{Seed: seed, TornAtByte: 300}
			}
			return nil
		})
		db := tsdb.New()
		man, _, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyAlways, CheckpointEvery: -1, Logf: quiet})
		if err == nil {
			committed := 0
			for b := 1; b <= 40; b++ {
				db.Insert("car-1/acc[0]", tsdb.Point{TimestampMillis: int64(b), Value: float64(b)})
				if crashCommit(man, "car-1", uint64(b)) != nil {
					break
				}
				committed = b
			}
			// No Crash() truncation here: the torn tail models bytes the disk
			// retained from a half-finished append, so recovery must see them.
			rdb := tsdb.New()
			_, rec, err := durable.Open(rdb, durable.Options{FS: mem, Policy: durable.PolicyAlways, CheckpointEvery: -1, Logf: quiet})
			out["torn_tail"] = err == nil && !rec.Degraded && rec.TornBytes > 0 &&
				committed > 0 && rdb.Len("car-1/acc[0]") >= committed
		}
	}

	// Bit flip: corrupt one byte inside an early record; recovery must stop
	// there, report a loss bound, and keep only value-consistent rows.
	{
		mem := durable.NewMemFS()
		fs := fault.NewFS(mem, func(name string) *fault.FileConfig {
			if name == walGen1 {
				return &fault.FileConfig{Seed: seed, FlipAtByte: 60}
			}
			return nil
		})
		db := tsdb.New()
		man, _, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyAlways, CheckpointEvery: -1, Logf: quiet})
		if err == nil {
			for b := 1; b <= 10; b++ {
				db.Insert("car-1/acc[0]", tsdb.Point{TimestampMillis: int64(b), Value: float64(b)})
				if crashCommit(man, "car-1", uint64(b)) != nil {
					break
				}
			}
			mem.Crash()
			rdb := tsdb.New()
			_, rec, err := durable.Open(rdb, durable.Options{FS: mem, Policy: durable.PolicyAlways, CheckpointEvery: -1, Logf: quiet})
			clean := true
			for _, p := range rdb.Range("car-1/acc[0]", 0, 1<<40) {
				//lint:ignore floatcmp values are exact small-integer float64s; any inequality is surviving corruption, not rounding
				if p.Value != float64(p.TimestampMillis) {
					clean = false
				}
			}
			out["bit_flip"] = err == nil && rec.Degraded && rec.LostBytes > 0 && clean
		}
	}

	// Fsync failure: the first sync fails; the manager must latch degradation
	// (commit errors) while the store keeps accepting inserts.
	{
		mem := durable.NewMemFS()
		fs := fault.NewFS(mem, func(name string) *fault.FileConfig {
			if name == walGen1 {
				return &fault.FileConfig{Seed: seed, FailSyncFrom: 1}
			}
			return nil
		})
		db := tsdb.New()
		man, _, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyAlways, CheckpointEvery: -1, Logf: quiet})
		if err == nil {
			db.Insert("car-1/acc[0]", tsdb.Point{TimestampMillis: 1, Value: 1})
			commitErr := crashCommit(man, "car-1", 1)
			db.Insert("car-1/acc[0]", tsdb.Point{TimestampMillis: 2, Value: 2})
			h := man.Health()
			out["sync_error"] = commitErr != nil && h.OK && db.Len("car-1/acc[0]") == 2
		}
	}
	return out
}
