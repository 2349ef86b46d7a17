package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// layerMetrics are the per-layer metrics a traced run reports, in the order
// README.md documents them. A layer the workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"nn.cnn_forward_ms", "ms"},
	{"nn.cnn_allocs_per_call", "count"},
	{"nn.cnn_alloc_kb_per_call", "KB"},
	{"rnn.window_forward_ms", "ms"},
	{"rnn.window_allocs_per_call", "count"},
	{"bayes.fuse_us", "us"},
	{"core.classify_ms", "ms"},
	{"core.parts_ms", "ms"},
	{"core.unexplained_share", "share"},
	{"stream.tick_frame_ms", "ms"},
	{"stream.tick_sample_us", "us"},
	{"stream.tick_window_ms", "ms"},
	{"stream.busy_share", "share"},
	{"stream.offer_us", "us"},
	{"stream.queue_depth_mean", "count"},
	{"stream.queue_wait_ms", "ms"},
	{"stream.shed_share", "share"},
	{"stream.frame_skip_share", "share"},
	{"collect.poll_us", "us"},
	{"collect.flush_ms", "ms"},
	{"collect.serve_ms", "ms"},
	{"collect.deferred_flush_share", "share"},
	{"collect.spill_drop_share", "share"},
	{"wire.bytes_per_reading", "B"},
	{"wire.writes_per_batch", "count"},
	{"durable.writes_per_batch", "count"},
	{"durable.bytes_per_reading", "B"},
	{"durable.write_us", "us"},
	{"durable.write_share", "share"},
	{"durable.fsync_ms", "ms"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.recovery_s", "s"},
	{"durable.replayed_records", "count"},
	{"tsdb.points_stored", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.allocs_per_op", "count"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// maxSpans bounds the spans kept in memory; later spans are counted, not
// kept.
const maxSpans = 200000

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for none).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory and the per-boundary
// totals the layer metrics are computed from. While off it records nothing,
// so one set of wrappers serves both phases of a traced run.
type recorder struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	totals sync.Map // boundary name → *total

	mu      sync.Mutex
	spans   []span
	dropped int
}

// total is a count and a summed duration at one boundary.
type total struct {
	n  atomic.Int64
	ns atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now()}
}

// total returns the named accumulator, creating it on first use.
func (r *recorder) total(name string) *total {
	if t, ok := r.totals.Load(name); ok {
		return t.(*total)
	}
	t, _ := r.totals.LoadOrStore(name, &total{})
	return t.(*total)
}

// span records one interval and returns its ID (0 while the recorder is
// off). The duration is also added to the boundary's total.
func (r *recorder) span(name string, op, parent uint64, start, end time.Time) uint64 {
	if !r.active() {
		return 0
	}
	r.observe(name, end.Sub(start))
	id := r.nextID.Add(1)
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent,
			Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return id
}

// observe adds one duration to a boundary's total without keeping a span,
// for boundaries crossed too often to keep every interval.
func (r *recorder) observe(name string, d time.Duration) {
	if !r.active() {
		return
	}
	t := r.total(name)
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// tally adds n to a boundary's count without a duration.
func (r *recorder) tally(name string, n int64) {
	if r.active() {
		r.total(name).n.Add(n)
	}
}

// active reports whether the recorder exists and is recording.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// mean returns the mean duration at a boundary in the given unit.
func (r *recorder) mean(name string, unit time.Duration) float64 {
	t := r.total(name)
	return share(float64(t.ns.Load())/float64(unit), float64(t.n.Load()))
}

// sum returns the summed duration at a boundary.
func (r *recorder) sum(name string) time.Duration { return time.Duration(r.total(name).ns.Load()) }

// count returns the number of observations at a boundary.
func (r *recorder) count(name string) int64 { return r.total(name).n.Load() }

// write stores the spans as JSON lines under the build directory.
func (r *recorder) write(cfg *runConfig) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	spans, dropped := r.spans, r.dropped
	r.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	logf("wrote %d spans to %s (%d over the in-memory bound not kept)", len(spans), path, dropped)
	return nil
}

// runtimeSample is a reading of the process-wide runtime counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}

// runtimeLayers fills the process-wide layer metrics for the interval
// between two readings in which ops operations completed.
func runtimeLayers(layers map[string]float64, a, b runtimeSample, ops int) {
	layers["runtime.gc_cpu_share"] = share(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	layers["runtime.allocs_per_op"] = share(float64(b.allocs-a.allocs), float64(ops))
}

// heapSampler tracks the Go heap in use (live and not yet swept objects)
// while it runs, as the peak of each heapWindow of samples. A single
// sample's peak depends on where a GC cycle happened to fall; the median of
// the window peaks does not.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per completed window
}

// heapSamplePeriod is how often the sampler reads the heap, and heapWindow
// how many readings make one window.
const (
	heapSamplePeriod = 2 * time.Millisecond
	heapWindow       = 100
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	n := 0
	read := func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		if n++; n == heapWindow {
			h.peaks = append(h.peaks, float64(peak)/(1<<20))
			peak, n = 0, 0
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the window peaks in MB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.peaks
}

// settle collects the garbage set-up left behind, so the timed phase starts
// from the live heap the workload itself needs.
func settle() {
	runtime.GC()
	runtime.GC()
}

// allocsPerCall counts the heap allocations and bytes of one call of fn,
// taking the least over n single calls: the runtime's own occasional
// allocations land on some calls, never on all, so the least is the call's
// exact cost and repeats from run to run. Only the calling goroutine may be
// running workload code.
func allocsPerCall(n int, fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	minAllocs, minBytes := ^uint64(0), ^uint64(0)
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		minAllocs = min(minAllocs, b.Mallocs-a.Mallocs)
		minBytes = min(minBytes, b.TotalAlloc-a.TotalAlloc)
	}
	return float64(minAllocs), float64(minBytes)
}
