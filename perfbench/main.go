// Command perfbench is DarNet's benchmark. It runs one workload against the
// program's public calls and seams, checks the program's outputs, and prints
// one JSON result line. See README.md for the workloads, the metrics and how
// to run the traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir is where the run's scratch files live, relative to the checkout
// root the benchmark is started from.
const buildDir = ".bench_build"

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for this run, removed at exit
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	setup             []float64 // seconds of each set-up repetition
	lat               latencies // per-operation latency of the timed phase
	throughput        float64   // completed operations per second
	heapPeaks         []float64 // MB, peak heap in use per round (classify: per sampler window)
	layers            map[string]float64
}

// workload runs one workload and reports what it measured. Correctness
// failures are counted in the outcome; an error means the run could not
// complete at all.
type workload struct {
	run  func(*runConfig) (*outcome, error)
	tail float64 // the fixed tail percentile, chosen by tailRule on the seed
}

// workloads are the benchmark's workloads. The tail percentiles were fixed
// by tailRule over the sample counts of 20-second runs on a 2-core host (see
// stability.json) and must not change between the commits being compared.
var workloads = map[string]workload{
	"classify":        {run: runClassify, tail: 0.99},
	"ingest":          {run: runIngest, tail: 0.999},
	"stream_paced":    {run: runStreamPaced, tail: 0.9},
	"stream_overload": {run: runStreamOverload, tail: 0.99},
}

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload {%s} --seed N --seconds S --trace {0|1}", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := &runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}

	out, err := w.run(cfg)
	if err != nil {
		logf("%s: %v", *name, err)
		return 1
	}
	res, err := report(cfg, w, out)
	if err != nil {
		logf("%v", err)
		return 1
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(cfg)})
	if err != nil {
		logf("%v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(prov))
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report turns an outcome into the result line: the end-to-end metrics for
// an untraced run, every per-layer metric for a traced one.
func report(cfg *runConfig, w workload, out *outcome) (*result, error) {
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	ms := make(map[string]metric)
	if cfg.trace {
		for _, l := range layerMetrics {
			ms[l.name] = metric{Value: out.layers[l.name], Unit: l.unit}
		}
	} else {
		p50, tail := out.lat.summary(w.tail)
		vals := map[string]float64{
			"setup_s":          median(out.setup),
			"latency_p50_ms":   p50,
			"latency_tail_ms":  tail,
			"throughput_per_s": out.throughput,
			"heap_peak_mb":     median(out.heapPeaks),
		}
		for _, e := range endToEnd {
			ms[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
		logf("%s: %d latency samples, tail p%g; set-up repetitions %v s",
			cfg.workload, len(out.lat.ms), 100*w.tail, out.setup)
	}
	if err := checkMetricNames(ms); err != nil {
		return nil, err
	}
	return &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}, nil
}

// provenance records what the result was measured on.
func provenance(cfg *runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"time_utc":   time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where it exists.
func cpuModel() string {
	buf, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
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
