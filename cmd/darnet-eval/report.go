package main

// Every benchmark experiment writes one record shape, the shape of
// perfbench's result line: which experiment ran with which seed, the machine
// it ran on, and a flat map of named metrics, each a value with its unit.
// Nested results flatten into dotted names (always.insert_ns_per_op,
// baseline.processed_per_sec) and booleans into 1/0. -check-bench decodes that
// one shape, checks what every record must hold, then applies the gates of
// the experiment that wrote it.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"

	"darnet/internal/telemetry"
)

// report is the record every benchmark experiment writes.
type report struct {
	PR         int        `json:"pr"`
	Experiment string     `json:"experiment"`
	Seed       int64      `json:"seed"`
	Provenance provenance `json:"provenance"`
	Metrics    metricSet  `json:"metrics"`
}

// provenance records the machine a report was measured on.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// oneIf is a boolean outcome as a metric value: 1 or 0.
func oneIf(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// benchmark is one benchmark experiment: the pr its reports record, which
// also names its committed report BENCH_PR<pr>.json, and the gates every
// report of it must pass.
type benchmark struct {
	pr    int
	gates []gate
}

func (b benchmark) file() string { return fmt.Sprintf("BENCH_PR%d.json", b.pr) }

var inf = math.Inf(1)

// benchmarks are the benchmark experiments by name.
var benchmarks = map[string]benchmark{
	"bench": {pr: 3, gates: []gate{
		positive("samples"),
		within("accuracy.cnn_rnn", 0, 1),
		within("accuracy.cnn_svm", 0, 1),
		within("accuracy.cnn", 0, 1),
		each("*.count", 1, -1, func(stage string) []gate {
			return []gate{
				telemetryName(stage),
				positive(stage + ".count"),
				ordered(stage+".p50_ms", stage+".p90_ms", stage+".p99_ms"),
				within(stage+".mean_ms", 0, inf),
			}
		}),
	}},
	"chaos": {pr: 5, gates: []gate{
		positive("readings_stored", "throughput_rps"),
		within("partitions", 2, inf),
		ordered("partitions", "reconnects"),
		each("partition*.recovery_ms", 1, -1, func(n string) []gate {
			return []gate{
				positive("partition" + n + ".recovery_ms"),
				ordered("partition"+n+".recovery_ms", "recovery_max_ms"),
			}
		}),
	}},
	"stream": {pr: 7, gates: []gate{
		positive("max_depth"),
		ordered("max_depth", "queue_cap"),
		cond("shed_readings + spill_dropped > 0", func(v []float64) bool { return v[0]+v[1] > 0 },
			"shed_readings", "spill_dropped"),
		within("saturation_ratio", 2, inf),
		positive("decisions", "decisions_per_sec", "alert_latency_p99_ms"),
		ordered("alert_latency_p50_ms", "alert_latency_p99_ms"),
		positive("alerts_raised", "frames_skipped"),
	}},
	"obs": {pr: 8, gates: []gate{
		positive("queue_cap"),
		positive("baseline.runs", "baseline.processed_readings", "baseline.processed_per_sec", "baseline.decisions"),
		ordered("baseline.max_depth", "queue_cap"),
		positive("instrumented.runs", "instrumented.processed_readings", "instrumented.processed_per_sec", "instrumented.decisions"),
		ordered("instrumented.max_depth", "queue_cap"),
		positive("scrapes", "history_series", "flush_traces"),
		within("overhead_pct", -inf, 5),
	}},
	"crash": {pr: 10, gates: []gate{
		positive("readings", "baseline_ns_per_op"),
		each("*.insert_ns_per_op", 3, 3, func(policy string) []gate {
			return []gate{positive(policy+".insert_ns_per_op", policy+".loss_bound_ok")}
		}),
		positive("recovery_ms", "recovered_inserts"),
		ordered("recovered_inserts", "recovered_points"),
		each("fault.*", 3, -1, func(fault string) []gate {
			return []gate{positive("fault." + fault)}
		}),
	}},
}

// benchOutPath is where experiment exp writes its report: the -bench-out
// value when one is given, else the experiment's committed report.
func benchOutPath(exp, benchOut string) string {
	if benchOut != "" {
		return benchOut
	}
	if b, ok := benchmarks[exp]; ok {
		return b.file()
	}
	return ""
}

// writeReport records the host's provenance with m as experiment's report,
// writes it to path and prints it.
func writeReport(path, experiment string, seed int64, m metricSet) error {
	r := &report{PR: benchmarks[experiment].pr, Experiment: experiment, Seed: seed, Provenance: hostProvenance(), Metrics: m}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s report: %w", experiment, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s report: %w", experiment, err)
	}
	printReport(r)
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

func hostProvenance() provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where it exists.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport prints a header line, then one line per metric in name order.
func printReport(r *report) {
	p := r.Provenance
	host := "provenance not recorded"
	if p != (provenance{}) {
		host = fmt.Sprintf("%s %s/%s, GOMAXPROCS %d of %d CPUs, %s", p.GoVersion, p.GOOS, p.GOARCH, p.GOMAXPROCS, p.NProc, p.CPUModel)
	}
	fmt.Printf("== %s (pr %d, seed %d): %s ==\n", r.Experiment, r.PR, r.Seed, host)
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		m := r.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// checkBenchFile is the -check-bench mode the smoke targets gate on: it
// reads one report, validates it and prints it.
func checkBenchFile(path string) error {
	r, err := readReport(path)
	if err != nil {
		return err
	}
	if err := r.validate(filepath.Base(path)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	printReport(r)
	fmt.Printf("%s ok: %d metrics\n", path, len(r.Metrics))
	return nil
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// The charsets of perfbench's metric names and units.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks what every report must hold, then the gates of its
// experiment. file is the report's base name: only an experiment's
// committed report may lack provenance, as those were converted from runs
// that never recorded it.
func (r *report) validate(file string) error {
	b, ok := benchmarks[r.Experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", r.Experiment)
	}
	if r.PR <= 0 {
		return fmt.Errorf("pr = %d, want > 0", r.PR)
	}
	p := r.Provenance
	complete := p.GoVersion != "" && p.GOMAXPROCS > 0 && p.NProc > 0 && p.CPUModel != "" && p.GOOS != "" && p.GOARCH != ""
	if !complete && !(p == provenance{} && file == b.file()) {
		return fmt.Errorf("incomplete provenance %+v", p)
	}
	for name, m := range r.Metrics {
		if !metricName.MatchString(name) || !unitName.MatchString(m.Unit) {
			return fmt.Errorf("metric %q with unit %q breaks the charset", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s = %v is not finite", name, m.Value)
		}
	}
	for _, g := range b.gates {
		if err := g(r.Metrics); err != nil {
			return err
		}
	}
	return nil
}

// A gate is one condition an experiment's reports must meet. Its error names
// the metrics it read.
type gate func(metricSet) error

// cond is the gate that the values of names satisfy ok, which want describes.
func cond(want string, ok func(v []float64) bool, names ...string) gate {
	return func(m metricSet) error {
		v := make([]float64, len(names))
		got := make([]string, len(names))
		for i, name := range names {
			x, found := m[name]
			if !found {
				return fmt.Errorf("missing metric %s", name)
			}
			v[i] = x.Value
			got[i] = fmt.Sprintf("%s = %v", name, x.Value)
		}
		if !ok(v) {
			return fmt.Errorf("%s: want %s", strings.Join(got, ", "), want)
		}
		return nil
	}
}

// positive requires every named metric to be > 0.
func positive(names ...string) gate {
	return func(m metricSet) error {
		for _, name := range names {
			if err := cond("> 0", func(v []float64) bool { return v[0] > 0 }, name)(m); err != nil {
				return err
			}
		}
		return nil
	}
}

// within requires the named metric to lie in [lo, hi].
func within(name string, lo, hi float64) gate {
	return cond(fmt.Sprintf("in [%v, %v]", lo, hi), func(v []float64) bool { return v[0] >= lo && v[0] <= hi }, name)
}

// ordered requires the named metrics to be non-decreasing in the order given.
func ordered(names ...string) gate {
	return cond(strings.Join(names, " <= "), func(v []float64) bool {
		for i := 1; i < len(v); i++ {
			if v[i-1] > v[i] {
				return false
			}
		}
		return true
	}, names...)
}

// telemetryName requires stage to be a valid telemetry metric name.
func telemetryName(stage string) gate {
	return func(metricSet) error {
		if !telemetry.ValidName(stage) {
			return fmt.Errorf("stage %s is not a valid telemetry metric name", stage)
		}
		return nil
	}
}

// each finds the metrics matching pattern, whose one '*' stands for a key
// such as a policy or stage name, requires between lo and hi keys (hi < 0:
// no upper bound), and applies per(key) to every key.
func each(pattern string, lo, hi int, per func(key string) []gate) gate {
	prefix, suffix, _ := strings.Cut(pattern, "*")
	return func(m metricSet) error {
		var keys []string
		for name := range m {
			if len(name) > len(prefix)+len(suffix) && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				keys = append(keys, name[len(prefix):len(name)-len(suffix)])
			}
		}
		if len(keys) < lo || (hi >= 0 && len(keys) > hi) {
			want := fmt.Sprintf(">= %d", lo)
			if hi >= 0 {
				want = fmt.Sprintf("%d to %d", lo, hi)
			}
			return fmt.Errorf("%d metrics match %s: want %s", len(keys), pattern, want)
		}
		slices.Sort(keys)
		for _, key := range keys {
			for _, g := range per(key) {
				if err := g(m); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
