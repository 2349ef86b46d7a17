package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"darnet/internal/durable"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {99999, 0.999}, {100000, 0.9999},
	} {
		if got := tailRule(c.n); got != c.want {
			t.Errorf("tailRule(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The fixed tails are what the rule gives at the sample counts of a run
	// of run_seconds on the seed.
	secs := float64(readBenchmark(t).RunSeconds)
	ingestFlushes := int(math.Round(ingestRate*secs/(roundFlushes*ingestAgents))) * roundFlushes * ingestAgents
	for name, n := range map[string]int{
		"classify":        int(classifyRate * secs),
		"ingest":          ingestFlushes,
		"stream_paced":    int(secs * pacedWindowRate),
		"stream_overload": int(secs * 150), // the seed decides about 150 windows/s
	} {
		if got := tailRule(n); got != workloads[name].tail {
			t.Errorf("%s: %d samples give p%g, the workload fixes p%g", name, n, 100*got, 100*workloads[name].tail)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(s, 0.9); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestTailIsMedianOfSegments(t *testing.T) {
	if segmentFor(0.99) != 1000 || segmentFor(0.9) != 100 || segmentFor(0.999) != 10000 {
		t.Fatalf("segments %d %d %d", segmentFor(0.99), segmentFor(0.9), segmentFor(0.999))
	}
	// A burst of 50 slow calls inside one of three segments moves that
	// segment's p99 only.
	var burst latencies
	for i := 0; i < 3000; i++ {
		d := time.Millisecond
		if i >= 1000 && i < 1050 {
			d = 100 * time.Millisecond
		}
		burst.add(d)
	}
	if p50, p99 := burst.summary(0.99); p50 != 1 || p99 != 1 {
		t.Errorf("burst in one segment: p50 %g p99 %g, want 1 and 1", p50, p99)
	}
	// A cost every segment pays shows in the tail.
	var spread latencies
	for i := 0; i < 3000; i++ {
		d := time.Millisecond
		if i%100 == 0 || i%100 == 50 {
			d = 5 * time.Millisecond
		}
		spread.add(d)
	}
	if _, p99 := spread.summary(0.99); p99 != 5 {
		t.Errorf("slow calls in every segment: p99 %g, want 5", p99)
	}
}

func TestScheduleLatencyFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	s := &schedule{start: t0, period: 10 * ms, n: 4}
	if from, to := s.take(t0.Add(-ms)); from != to {
		t.Fatalf("took [%d,%d) before anything was due", from, to)
	}
	if from, to := s.take(t0); from != 0 || to != 1 {
		t.Fatalf("at start took [%d,%d), want [0,1)", from, to)
	}
	// The generator stalls until 35 ms: events 1..3 go out late, together.
	if from, to := s.take(t0.Add(35 * ms)); from != 1 || to != 4 || !s.done() {
		t.Fatalf("after the stall took [%d,%d), want [1,4)", from, to)
	}
	if s.late != (25+15+5)*ms || s.meanLate() != 45*ms/4 {
		t.Errorf("lateness %v (mean %v), want 45ms (mean 11.25ms)", s.late, s.meanLate())
	}
	// Latency runs from the due time, not from when the event was sent: the
	// stall counts against every event it delayed.
	if got := s.latency(1, t0.Add(40*ms)); got != 30*ms {
		t.Errorf("latency of event 1 = %v, want 30ms", got)
	}
	if got := s.latency(3, t0.Add(40*ms)); got != 10*ms {
		t.Errorf("latency of event 3 = %v, want 10ms", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "x" + string(make([]byte, 64))} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"setup_s", "nn.cnn_forward_ms", "9-x.y_z"} {
		if !metricName.MatchString(good) {
			t.Errorf("name %q rejected", good)
		}
	}
	if err := checkMetricNames(map[string]metric{"ok": {Unit: "bad unit"}}); err == nil {
		t.Error("a unit with a space was accepted")
	}
	// The program and BENCHMARK.json declare the same metrics, in charset.
	b := readBenchmark(t)
	all := make(map[string]metric)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(layerMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		all[m.Name] = metric{Unit: m.Unit}
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
		all[m.Name] = metric{Unit: m.Unit}
	}
	if err := checkMetricNames(all); err != nil {
		t.Error(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || !metricName.MatchString(w.Name) {
			t.Errorf("workload %q is not the program's or breaks the charset", w.Name)
		}
	}
}

// TestFrameTap feeds a framed stream in every split and checks the tap sees
// each frame's type, size and end.
func TestFrameTap(t *testing.T) {
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	msgs := []wire.Message{
		&wire.Hello{AgentID: "a", Modality: "imu", PeriodMillis: 25},
		&wire.SampleBatch{AgentID: "a", Seq: 1, Readings: []wire.Reading{{TimestampMillis: 1, Sensor: "accel", Values: []float64{1, 2, 3}}}},
		&wire.Ack{Seq: 1, Count: 1},
	}
	var sizes []int
	for _, m := range msgs {
		before := buf.Len()
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, buf.Len()-before)
	}
	stream := buf.Bytes()
	for chunk := 1; chunk <= len(stream); chunk++ {
		var tap frameTap
		got := make(map[wire.MsgType]int)
		var ends []wire.MsgType
		for off := 0; off < len(stream); off += chunk {
			tap.feed(stream[off:min(off+chunk, len(stream))], func(typ wire.MsgType, n int, done bool) {
				got[typ] += n
				if done {
					ends = append(ends, typ)
				}
			})
		}
		for i, m := range msgs {
			if got[m.Type()] != sizes[i] {
				t.Fatalf("chunk %d: type %d carried %d bytes, want %d", chunk, m.Type(), got[m.Type()], sizes[i])
			}
		}
		if !reflect.DeepEqual(ends, []wire.MsgType{wire.TypeHello, wire.TypeSampleBatch, wire.TypeAck}) {
			t.Fatalf("chunk %d: frames ended %v", chunk, ends)
		}
	}
}

// TestWrappedFSRecoversIdentically recovers the same fixture through the
// plain and the wrapped durable.FS and compares the stores and the files
// each leaves behind.
func TestWrappedFSRecoversIdentically(t *testing.T) {
	dir := t.TempDir()
	pristine := filepath.Join(dir, "image")
	points, marks, err := writeFixture(filepath.Join(dir, "fixture"), pristine, 7)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	rec.on.Store(true)
	recover := func(name string, wrap bool) (map[string][]tsdb.Point, string) {
		d := filepath.Join(dir, name)
		if err := copyDir(pristine, d); err != nil {
			t.Fatal(err)
		}
		dfs, err := durable.NewDirFS(d)
		if err != nil {
			t.Fatal(err)
		}
		var fs durable.FS = dfs
		if wrap {
			fs = &tapFS{FS: dfs, rec: rec}
		}
		db := tsdb.New()
		mgr, recov, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyInterval, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if why := checkRecovery(db, recov, points, marks); why != "" {
			t.Errorf("%s: %s", name, why)
		}
		snap := db.Snapshot(nil)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		return snap, d
	}
	plainDB, plainDir := recover("plain", false)
	wrapDB, wrapDir := recover("wrapped", true)
	if !reflect.DeepEqual(plainDB, wrapDB) {
		t.Error("the wrapped FS recovered a different store")
	}
	if rec.count("durable.ckpt_write") == 0 {
		t.Error("the wrapper saw no checkpoint write")
	}
	entries, err := os.ReadDir(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(plainDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(wrapDir, e.Name()))
		if err != nil {
			t.Fatalf("the wrapped recovery left no %s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the plain and the wrapped recovery", e.Name())
		}
	}
}

// exactCounts are the per-layer counts that must repeat identically across
// runs of one seed.
var exactCounts = map[string][]string{
	"classify": {"nn.cnn_allocs_per_call", "nn.cnn_alloc_kb_per_call", "rnn.window_allocs_per_call"},
	"ingest": {"wire.writes_per_batch", "wire.bytes_per_reading", "durable.writes_per_batch",
		"durable.bytes_per_reading", "durable.replayed_records", "tsdb.points_stored"},
}

func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains engines and runs the ingest workload twice")
	}
	for name, keys := range exactCounts {
		var first map[string]float64
		for run := 0; run < 2; run++ {
			cfg := &runConfig{workload: name, seed: 3, seconds: 1, trace: true, dir: t.TempDir()}
			out, err := workloads[name].run(cfg)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if out.failed != 0 {
				t.Fatalf("%s run %d: %d of %d checks failed", name, run, out.failed, out.attempted)
			}
			if run == 0 {
				first = out.layers
				for _, k := range keys {
					if first[k] == 0 {
						t.Errorf("%s: %s is 0", name, k)
					}
				}
				continue
			}
			for _, k := range keys {
				if out.layers[k] != first[k] {
					t.Errorf("%s: %s read %v, then %v", name, k, first[k], out.layers[k])
				}
			}
		}
	}
}
