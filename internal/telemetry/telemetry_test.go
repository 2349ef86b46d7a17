package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestValidName(t *testing.T) {
	valid := []string{
		"darnet_collect_batches_total",
		"darnet_tsdb_insert_seconds",
		"darnet_x1",
	}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{
		"",
		"darnet_",
		"collect_batches_total",   // no prefix
		"darnet_CamelCase",        // upper case
		"darnet_double__under",    // double underscore
		"darnet_trailing_",        // trailing underscore
		"darnet_bad-char",         // hyphen
		"Darnet_collect_batches",  // capital prefix
		"darnet_collect batches",  // space
		"darnetcollect_batches_t", // prefix must be darnet_
	}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestRegistryRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("darnet_test_total", "help")
	b := r.Counter("darnet_test_total", "other help ignored")
	if a != b {
		t.Fatal("re-registration returned a different handle")
	}
	g1 := r.Gauge("darnet_test_gauge", "")
	g2 := r.Gauge("darnet_test_gauge", "")
	if g1 != g2 {
		t.Fatal("gauge re-registration returned a different handle")
	}
	h1 := r.Histogram("darnet_test_seconds", "", nil)
	h2 := r.Histogram("darnet_test_seconds", "", nil)
	if h1 != h2 {
		t.Fatal("histogram re-registration returned a different handle")
	}
}

func TestRegistryRejectsBadNamesAndKindClashes(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("invalid name", func() { r.Counter("not_darnet", "") })
	mustPanic("invalid gauge name", func() { r.Gauge("darnet_Bad", "") })
	r.Counter("darnet_clash_total", "")
	mustPanic("kind clash", func() { r.Gauge("darnet_clash_total", "") })
	mustPanic("kind clash histogram", func() { r.Histogram("darnet_clash_total", "", nil) })
	mustPanic("negative counter add", func() { r.Counter("darnet_neg_total", "").Add(-1) })
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("darnet_c_total", "")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("darnet_g", "")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %g, want 1", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("darnet_conc_total", "")
	g := r.Gauge("darnet_conc_gauge", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %g, want 8000", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	// Uniform bucket bounds make the interpolation exactly checkable.
	h := r.Histogram("darnet_h_seconds", "", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5) // 0.5..9.5 uniform
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 4 || p50 > 6 {
		t.Fatalf("p50 = %g, want ~5", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 9 || p99 > 10 {
		t.Fatalf("p99 = %g, want ~9.9", p99)
	}
	if q := h.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("q0 = %g, want within first bucket", q)
	}
	mean := h.Mean()
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("mean = %g, want ~5", mean)
	}
}

func TestHistogramOverflowAndEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("darnet_of_seconds", "", []float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(100) // overflow bucket
	// The overflow estimate floors at the last bound.
	if q := h.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %g, want 2 (last bound)", q)
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != 1 || !math.IsInf(snap.Buckets[0].UpperBound, 1) {
		t.Fatalf("snapshot buckets = %+v, want one +Inf bucket", snap.Buckets)
	}
}

func TestHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("darnet_since_seconds", "", nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if s := h.Sum(); s < 0.009 || s > 1 {
		t.Fatalf("sum = %g, want ~0.01", s)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted bounds")
		}
	}()
	r.Histogram("darnet_bad_seconds", "", []float64{2, 1})
}

// TestLatencyBucketsCopy: a histogram built on the default buckets gets
// its own copy of the 27 bounds from 1 µs.
func TestLatencyBucketsCopy(t *testing.T) {
	b := newHistogram("darnet_default_seconds", "", nil).bounds
	if len(b) != 27 || b[0] != 1e-6 {
		t.Fatalf("unexpected default buckets: %d bounds, first %g", len(b), b[0])
	}
	b[0] = 99 // mutating the copy must not corrupt the shared defaults
	if latencyBuckets[0] != 1e-6 {
		t.Fatal("histogram shares the default buckets' storage")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("darnet_zz_total", "").Inc()
	r.Counter("darnet_aa_total", "help text").Add(2)
	r.Gauge("darnet_mid", "").Set(3)
	r.Histogram("darnet_lat_seconds", "", nil).Observe(0.001)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "darnet_aa_total" || s.Counters[1].Name != "darnet_zz_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counters[0].Value != 2 || s.Counters[0].Help != "help text" {
		t.Fatalf("counter snapshot wrong: %+v", s.Counters[0])
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 {
		t.Fatalf("gauge snapshot wrong: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", s.Histograms)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("darnet_batches_total", "ingested batches").Add(7)
	r.Gauge("darnet_skew_millis", "").Set(-2.5)
	r.Histogram("darnet_ingest_seconds", "", nil).Observe(0.002)
	var b strings.Builder
	if err := WriteText(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP darnet_batches_total ingested batches",
		"# TYPE darnet_batches_total counter",
		"darnet_batches_total 7",
		"darnet_skew_millis -2.5",
		"# TYPE darnet_ingest_seconds summary",
		`darnet_ingest_seconds{quantile="0.5"}`,
		"darnet_ingest_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
