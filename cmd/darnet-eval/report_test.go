package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// committed reads the committed report of experiment exp and gives it a
// provenance, so it validates as a new run under any file name.
func committed(t *testing.T, exp string) *report {
	t.Helper()
	b, ok := benchmarks[exp]
	if !ok {
		t.Fatalf("no benchmark %q", exp)
	}
	r, err := readReport(filepath.Join("..", "..", b.file()))
	if err != nil {
		t.Fatal(err)
	}
	r.Provenance = hostProvenance()
	return r
}

func TestCommittedReportsPassCheckBench(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reports []string
	for _, f := range files {
		if !checkPerfbenchRecord(t, f) {
			reports = append(reports, f)
		}
	}
	if len(reports) != len(benchmarks) {
		t.Fatalf("%d committed reports %v, want one per benchmark (%d)", len(reports), reports, len(benchmarks))
	}
	for _, f := range reports {
		if err := checkBenchFile(f); err != nil {
			t.Error(err)
		}
	}
}

// checkPerfbenchRecord reports whether path is a committed record of paired
// perfbench runs rather than a darnet-eval report, and if so checks that it
// holds alternating parent and change runs, each with perfbench's own
// result line: correct, no failed operation, and every metric with a unit.
func checkPerfbenchRecord(t *testing.T, path string) bool {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Perfbench *struct {
			Runs []struct {
				Workload, Side string
				Pair, Order    int
				Result         struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
			}
		}
	}
	if err := json.Unmarshal(buf, &rec); err != nil || rec.Perfbench == nil {
		return false
	}
	if len(rec.Perfbench.Runs) == 0 {
		t.Errorf("%s: no perfbench runs", path)
	}
	for i, r := range rec.Perfbench.Runs {
		if r.Side != "parent" && r.Side != "change" || r.Order != 1 && r.Order != 2 {
			t.Errorf("%s: run %d: side %q order %d", path, i, r.Side, r.Order)
		}
		res := r.Result
		if !res.Correct || res.Failed != 0 || res.Attempted <= 0 || len(res.Metrics) == 0 {
			t.Errorf("%s: run %d (%s %s pair %d): correct %v, %d of %d failed, %d metrics",
				path, i, r.Workload, r.Side, r.Pair, res.Correct, res.Failed, res.Attempted, len(res.Metrics))
		}
		for name, m := range res.Metrics {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("%s: run %d: metric %s lacks a value or unit", path, i, name)
			}
		}
	}
	return true
}

// TestGatesRejectEachViolation starts from each experiment's committed
// report, which passes, violates exactly one gate condition, and checks the
// record is rejected with an error naming the metric.
func TestGatesRejectEachViolation(t *testing.T) {
	const stage = "darnet_core_cnn_forward_seconds"
	type edit struct {
		name  string
		value float64 // del deletes the metric
	}
	type violation struct {
		exp   string
		edits []edit
		want  string // a metric name the error must contain
	}
	del := math.NaN()
	cases := []violation{
		{"bench", []edit{{"samples", 0}}, "samples"},
		{"bench", []edit{
			{"darnet_core_classify_seconds.count", del}, {"darnet_core_cnn_forward_seconds.count", del},
			{"darnet_core_rnn_forward_seconds.count", del}, {"darnet_core_bn_combine_seconds.count", del},
		}, "*.count"},
		{"bench", []edit{{"core_cnn_seconds.count", 1}, {"core_cnn_seconds.mean_ms", 1},
			{"core_cnn_seconds.p50_ms", 1}, {"core_cnn_seconds.p90_ms", 1}, {"core_cnn_seconds.p99_ms", 1}}, "core_cnn_seconds"},
		{"bench", []edit{{stage + ".count", 0}}, stage + ".count"},
		{"bench", []edit{{stage + ".p50_ms", 6}}, stage + ".p50_ms"}, // p90 < 6 < p99
		{"bench", []edit{{stage + ".p99_ms", 3}}, stage + ".p99_ms"}, // p50 < 3 < p90
		{"bench", []edit{{stage + ".mean_ms", -1}}, stage + ".mean_ms"},

		{"chaos", []edit{{"readings_stored", 0}}, "readings_stored"},
		{"chaos", []edit{{"throughput_rps", 0}}, "throughput_rps"},
		{"chaos", []edit{{"partitions", 1}}, "partitions"},
		{"chaos", []edit{{"reconnects", 1}}, "reconnects"},
		{"chaos", []edit{{"partition1.recovery_ms", del}, {"partition2.recovery_ms", del}}, "partition*.recovery_ms"},
		{"chaos", []edit{{"partition1.recovery_ms", 0}}, "partition1.recovery_ms"},
		{"chaos", []edit{{"partition1.recovery_ms", 9}}, "recovery_max_ms"},

		{"stream", []edit{{"max_depth", 0}}, "max_depth"},
		{"stream", []edit{{"max_depth", 65}}, "queue_cap"},
		{"stream", []edit{{"shed_readings", 0}, {"spill_dropped", 0}}, "shed_readings"},
		{"stream", []edit{{"saturation_ratio", 1.99}}, "saturation_ratio"},
		{"stream", []edit{{"decisions", 0}}, "decisions"},
		{"stream", []edit{{"decisions_per_sec", 0}}, "decisions_per_sec"},
		{"stream", []edit{{"alert_latency_p50_ms", 0}, {"alert_latency_p99_ms", 0}}, "alert_latency_p99_ms"},
		{"stream", []edit{{"alert_latency_p50_ms", 1700}}, "alert_latency_p50_ms"},
		{"stream", []edit{{"alerts_raised", 0}}, "alerts_raised"},
		{"stream", []edit{{"frames_skipped", 0}}, "frames_skipped"},

		{"obs", []edit{{"queue_cap", 0}, {"baseline.max_depth", 0}, {"instrumented.max_depth", 0}}, "queue_cap"},
		{"obs", []edit{{"scrapes", 0}}, "scrapes"},
		{"obs", []edit{{"history_series", 0}}, "history_series"},
		{"obs", []edit{{"flush_traces", 0}}, "flush_traces"},
		{"obs", []edit{{"overhead_pct", 5.01}}, "overhead_pct"},

		{"crash", []edit{{"readings", 0}}, "readings"},
		{"crash", []edit{{"baseline_ns_per_op", 0}}, "baseline_ns_per_op"},
		{"crash", []edit{{"never.insert_ns_per_op", del}}, "*.insert_ns_per_op"},
		{"crash", []edit{{"sometimes.insert_ns_per_op", 1}, {"sometimes.loss_bound_ok", 1}}, "*.insert_ns_per_op"},
		{"crash", []edit{{"always.insert_ns_per_op", 0}}, "always.insert_ns_per_op"},
		{"crash", []edit{{"interval.loss_bound_ok", 0}}, "interval.loss_bound_ok"},
		{"crash", []edit{{"recovery_ms", 0}}, "recovery_ms"},
		{"crash", []edit{{"recovered_inserts", 0}}, "recovered_inserts"},
		{"crash", []edit{{"recovered_points", 0}}, "recovered_points"},
		{"crash", []edit{{"recovered_points", 999999}}, "recovered_points"},
		{"crash", []edit{{"fault.bit_flip", 0}}, "fault.bit_flip"},
		{"crash", []edit{{"fault.torn_tail", del}}, "fault.*"},
	}
	for _, acc := range []string{"accuracy.cnn_rnn", "accuracy.cnn_svm", "accuracy.cnn"} {
		for _, v := range []float64{-0.01, 1.01, del} {
			cases = append(cases, violation{"bench", []edit{{acc, v}}, acc})
		}
	}
	// The obs gates hold per arm.
	for _, arm := range []string{"baseline", "instrumented"} {
		for _, name := range []string{"runs", "processed_readings", "processed_per_sec", "decisions"} {
			cases = append(cases, violation{"obs", []edit{{arm + "." + name, 0}}, arm + "." + name})
		}
		cases = append(cases, violation{"obs", []edit{{arm + ".max_depth", 65}}, arm + ".max_depth"})
	}

	for exp := range benchmarks {
		if err := committed(t, exp).validate("new.json"); err != nil {
			t.Fatalf("committed %s report with provenance: %v", exp, err)
		}
	}
	for _, c := range cases {
		r := committed(t, c.exp)
		for _, e := range c.edits {
			if math.IsNaN(e.value) {
				delete(r.Metrics, e.name)
			} else {
				r.Metrics.set(e.name, e.value, "count")
			}
		}
		err := r.validate("new.json")
		if err == nil {
			t.Errorf("%s %v: accepted", c.exp, c.edits)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %v: error %q does not name %s", c.exp, c.edits, err, c.want)
		}
	}
}

func TestValidateRejectsMalformedRecords(t *testing.T) {
	cases := []struct {
		name string
		edit func(r *report)
		file string
		want string
	}{
		{"missing pr", func(r *report) { r.PR = 0 }, "new.json", "pr"},
		{"unknown experiment", func(r *report) { r.Experiment = "latency" }, "new.json", "unknown experiment"},
		{"NaN metric", func(r *report) { r.Metrics.set("scrapes", math.NaN(), "count") }, "new.json", "scrapes"},
		{"Inf metric", func(r *report) { r.Metrics.set("overhead_pct", math.Inf(-1), "%") }, "new.json", "overhead_pct"},
		{"bad metric name", func(r *report) { r.Metrics.set("no spaces", 1, "count") }, "new.json", "no spaces"},
		{"bad unit", func(r *report) { r.Metrics.set("scrapes", 1, "") }, "new.json", "scrapes"},
		{"no metrics", func(r *report) { r.Metrics = nil }, "new.json", "missing metric"},
		{"no provenance on a new run", func(r *report) { r.Provenance = provenance{} }, "new.json", "provenance"},
		{"partial provenance", func(r *report) { r.Provenance.CPUModel = "" }, "new.json", "provenance"},
		{"partial provenance in the committed file", func(r *report) { r.Provenance.GOMAXPROCS = 0 }, "BENCH_PR8.json", "provenance"},
		{"another experiment's committed file", func(r *report) { r.Provenance = provenance{} }, "BENCH_PR7.json", "provenance"},
	}
	for _, c := range cases {
		r := committed(t, "obs")
		c.edit(r)
		err := r.validate(c.file)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestBenchOutPath(t *testing.T) {
	cases := []struct{ exp, flag, want string }{
		{"crash", "BENCH_PR3.json", "BENCH_PR3.json"}, // an explicit path is honoured
		{"obs", "/tmp/obs.json", "/tmp/obs.json"},
		{"bench", "", "BENCH_PR3.json"},
		{"chaos", "", "BENCH_PR5.json"},
		{"stream", "", "BENCH_PR7.json"},
		{"obs", "", "BENCH_PR8.json"},
		{"crash", "", "BENCH_PR10.json"},
		{"table2", "", ""},
	}
	for _, c := range cases {
		if got := benchOutPath(c.exp, c.flag); got != c.want {
			t.Errorf("benchOutPath(%q, %q) = %q, want %q", c.exp, c.flag, got, c.want)
		}
	}
}

func TestWrittenReportReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	m := committed(t, "crash").Metrics
	m.set("duration_ms", 1.0/3, "ms") // a value with no short decimal form
	if err := writeReport(path, "crash", 7, m); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	want := &report{PR: 10, Experiment: "crash", Seed: 7, Provenance: hostProvenance(), Metrics: m}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, want %+v", got, want)
	}
	if err := got.validate(filepath.Base(path)); err != nil {
		t.Error(err)
	}
}

// TestPackageDocListsBenchmarks keeps the command's documentation in step
// with the benchmark table.
func TestPackageDocListsBenchmarks(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for name, b := range benchmarks {
		if !strings.Contains(doc, "-exp "+name+" ") || !strings.Contains(doc, b.file()) {
			t.Errorf("package doc does not list -exp %s and %s", name, b.file())
		}
	}
}
