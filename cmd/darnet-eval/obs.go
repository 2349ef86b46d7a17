package main

// The obs experiment measures the observability tax: the saturating stream
// workload of -exp stream runs in two arms — a baseline with agent-side trace
// propagation off and no scraper, and an instrumented arm with distributed
// tracing on and the telemetry→tsdb scraper sampling at a tight interval.
// The arms run in pairs, and each pair's throughput loss is measured against
// its own baseline run, so drift in host load between pairs cancels; which
// arm runs first alternates from pair to pair. The reported overhead is the
// median loss over the pairs, and the acceptance bar checked by -check-bench
// is that it stays within 5%.

import (
	"fmt"
	"slices"
	"time"

	"darnet/internal/obs"
	"darnet/internal/telemetry"
)

const (
	obsRunFor         = 2 * time.Second
	obsPairs          = 9 // odd, so the median is one pair's loss
	obsScrapeInterval = 100 * time.Millisecond
)

// obsArm totals one side of the overhead comparison over its runs.
type obsArm struct {
	runs                                 int
	elapsed                              time.Duration
	processed, decisions, shed, maxDepth int64
}

// record folds one run into the arm and returns the run's processed/sec.
func (a *obsArm) record(res *satResult) float64 {
	a.runs++
	a.elapsed += res.elapsed
	a.processed += res.processed
	a.decisions += res.stats.Decisions
	a.shed += res.stats.ShedReadings
	a.maxDepth = max(a.maxDepth, res.stats.MaxDepth)
	return float64(res.processed) / res.elapsed.Seconds()
}

// put records the arm's totals as metrics named arm.*.
func (a *obsArm) put(m metricSet, arm string) {
	secs := a.elapsed.Seconds()
	m.set(arm+".runs", float64(a.runs), "count")
	m.set(arm+".processed_per_sec", float64(a.processed)/secs, "1/s")
	m.set(arm+".decisions_per_sec", float64(a.decisions)/secs, "1/s")
	m.set(arm+".processed_readings", float64(a.processed), "count")
	m.set(arm+".decisions", float64(a.decisions), "count")
	m.set(arm+".shed_readings", float64(a.shed), "count")
	m.set(arm+".max_depth", float64(a.maxDepth), "count")
}

// obsBench trains one engine, runs obsPairs (baseline, instrumented) pairs of
// saturating runs over it, and writes the report to outPath: both arms, the
// per-pair and median throughput loss, and the evidence that the
// instrumented arm really traced and scraped (merged flush traces retained,
// history series written).
func obsBench(scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool, outPath string) error {
	eng, ds, err := trainStreamEngine(scale, seed, cnnEpochs, rnnEpochs, quiet)
	if err != nil {
		return err
	}

	m := metricSet{}
	var base, instr obsArm
	var scrapes int64
	historySeries := 0
	losses := make([]float64, obsPairs)
	for i := range obsPairs {
		runSeed := seed + int64(i)
		var basePS, instrPS float64
		runBase := func() error {
			res, err := saturatingRun(eng, ds, runSeed, obsRunFor, true)
			if err != nil {
				return fmt.Errorf("baseline run %d: %w", i+1, err)
			}
			basePS = base.record(res)
			return nil
		}
		runInstr := func() error {
			// The scraper lives exactly as long as the instrumented run, so
			// its sampling cost lands inside the measured window; Stop's
			// final flush is part of the arm, matching darnetd's shutdown
			// behavior.
			scraper, err := obs.NewScraper(obs.ScrapeConfig{Interval: obsScrapeInterval})
			if err != nil {
				return err
			}
			scraper.Start()
			res, err := saturatingRun(eng, ds, runSeed, obsRunFor, false)
			scraper.Stop()
			if err != nil {
				return fmt.Errorf("instrumented run %d: %w", i+1, err)
			}
			instrPS = instr.record(res)
			scrapes += scraper.Scrapes()
			historySeries = max(historySeries, len(scraper.DB().Series()))
			return nil
		}
		first, second := runBase, runInstr
		if i%2 == 1 {
			first, second = runInstr, runBase
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		losses[i] = (1 - instrPS/basePS) * 100
		m.set(fmt.Sprintf("pair%d.overhead_pct", i+1), losses[i], "%")
	}

	// Only traced (instrumented) flushes produce merged trees rooted at the
	// agent-side flush span; baseline ingest roots stay controller-local.
	flushTraces := 0
	for _, tr := range telemetry.DefaultTracer.MergedTraces() {
		if tr.Name == "darnet_agent_flush_batch" {
			flushTraces++
		}
	}

	slices.Sort(losses)
	m.set("run_for_ms", float64(obsRunFor.Milliseconds()), "ms")
	m.set("scrape_interval_ms", float64(obsScrapeInterval.Milliseconds()), "ms")
	m.set("queue_cap", streamQueueCap, "count")
	base.put(m, "baseline")
	instr.put(m, "instrumented")
	// Throughput loss in percent; negative when the instrumented arm
	// measured faster, which is noise.
	m.set("overhead_pct", losses[obsPairs/2], "%")
	m.set("scrapes", float64(scrapes), "count")
	m.set("history_series", float64(historySeries), "count")
	m.set("flush_traces", float64(flushTraces), "count")
	return writeReport(outPath, "obs", seed, m)
}
